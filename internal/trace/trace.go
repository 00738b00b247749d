// Package trace records the stream of file I/O operations the User Simulator
// executes (the "usage log file" in the thesis's Figure 4.1 block diagram)
// and implements the Usage Analyzer that reduces a log to the per-session
// measures the thesis plots: average access-per-byte, average file size, and
// average number of files referenced (Figures 5.3-5.5), and per-call access
// size and response time summaries (Table 5.3).
//
// In the DES→workload→trace→analysis pipeline this package is both the
// trace stage (Sink, Log, Summarizer — what the workload emits) and the
// entry to the analysis stage (Analyze/Analysis — the reduction every
// table, figure, and artifact manifest downstream is built from).
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sync"
)

// Op identifies a file I/O system call.
type Op int

// System calls recorded in the usage log. They begin at one so the zero
// value is invalid.
const (
	OpOpen Op = iota + 1
	OpCreate
	OpRead
	OpWrite
	OpSeek
	OpClose
	OpUnlink
	OpStat
	OpReadDir
	OpMkdir
)

var opNames = map[Op]string{
	OpOpen:    "open",
	OpCreate:  "create",
	OpRead:    "read",
	OpWrite:   "write",
	OpSeek:    "seek",
	OpClose:   "close",
	OpUnlink:  "unlink",
	OpStat:    "stat",
	OpReadDir: "readdir",
	OpMkdir:   "mkdir",
}

var opValues = func() map[string]Op {
	m := make(map[string]Op, len(opNames))
	//wlint:allow maprange inverting a bijective map; the result is the same set whatever the visit order
	for op, name := range opNames {
		m[name] = op
	}
	return m
}()

// String returns the syscall name.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// IsData reports whether the operation transfers file data (read or write).
func (o Op) IsData() bool { return o == OpRead || o == OpWrite }

// MarshalJSON encodes the op as its syscall name.
func (o Op) MarshalJSON() ([]byte, error) { return json.Marshal(o.String()) }

// UnmarshalJSON decodes a syscall name.
func (o *Op) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	op, ok := opValues[s]
	if !ok {
		return fmt.Errorf("trace: unknown op %q", s)
	}
	*o = op
	return nil
}

// Sink consumes the stream of usage records a run produces. The thesis's
// Figure 4.1 pipes the User Simulator into a "usage log file" and only then
// into the Usage Analyzer; Sink generalizes that pipe so the log file is
// one implementation (Log, which retains every record for serialization,
// replay, and validation) and the streaming Summarizer is another (which
// folds each record into the analyzer's accumulators as it arrives —
// O(sessions) memory instead of O(records)).
//
// Ownership: the record passed to Emit is owned by the caller and valid
// only for the duration of the call. Producers pool and reuse the struct,
// so a sink must copy (Log) or fold (Summarizer) what it keeps and must
// never retain the pointer.
type Sink interface {
	// Emit consumes one record. Safe for concurrent use.
	Emit(*Record)

	// Stream returns a single-writer appender for one user's records —
	// the lock-free hot path under the DES kernel, where the whole
	// simulation runs on one goroutine and per-record locking would be
	// pure overhead. A stream must have at most one writer at a time and
	// must not be used concurrently with Emit, other users' streams, or
	// readers; the DES kernel's single-threaded schedule guarantees all
	// three.
	Stream(user int) Stream
}

// Stream is a single-writer record appender obtained from Sink.Stream. The
// Emit ownership contract is Sink's: the record is valid only for the call.
type Stream interface {
	Emit(*Record)
}

// Discard is a Sink that drops every record (operations execute but are
// not observed).
type Discard struct{}

// Emit drops the record.
func (Discard) Emit(*Record) {}

// Stream returns the discarding sink itself.
func (Discard) Stream(int) Stream { return Discard{} }

// Record is one executed file I/O operation.
type Record struct {
	// Session is the login session the operation belongs to.
	Session int `json:"session"`
	// User is the simulated user index.
	User int `json:"user"`
	// UserType names the user's type (e.g. "heavy", "light").
	UserType string `json:"user_type,omitempty"`
	// Op is the system call executed.
	Op Op `json:"op"`
	// Path is the file operated on.
	Path string `json:"path,omitempty"`
	// Category is the file category index in the spec (-1 if unknown).
	Category int `json:"category"`
	// Bytes is the transfer size for read/write, 0 otherwise.
	Bytes int64 `json:"bytes,omitempty"`
	// FileSize is the file's size when the operation completed.
	FileSize int64 `json:"file_size,omitempty"`
	// Start is the operation's start time, µs.
	Start float64 `json:"start"`
	// Elapsed is the operation's response time, µs.
	Elapsed float64 `json:"elapsed"`
	// Err is the errno-style failure, empty on success.
	Err string `json:"err,omitempty"`
}

// Log keeps every record in one list, in emission order. The zero value is
// ready to use.
//
// Two append paths exist:
//
//   - Emit and Add lock the log and are safe for concurrent use from
//     ordinary goroutines (the wall-clock runner, JSONL loading, tests).
//   - Stream(user) returns the log's one lock-free appender, whatever the
//     user: it is the session hot path under the DES kernel, where the whole
//     simulation runs on one goroutine and a mutex would be pure overhead.
//     The Sink contract already forbids two streams, or a stream and Emit,
//     from running at once, so every writer appends to the same list.
//
// Records live in a list of fixed-capacity chunks that never move once
// allocated: an append writes into the last chunk's spare capacity, or into
// a fresh chunk when it is full, so no record is ever copied again. Chunk
// capacities double from minChunk up to maxChunk, which bounds the slack to
// one partly filled chunk of at most maxChunk-1 entries.
type Log struct {
	mu sync.Mutex
	w  Shard
}

// Shard is the log's one lock-free appender, the Stream every user gets.
// The name stays only for bench/probes.go's append probe, which resolves
// it per user through Log.Shard.
type Shard struct {
	chunks [][]Record // every chunk but the last is full; none is empty
}

// Chunk capacities run minChunk, 2·minChunk, ... up to maxChunk entries
// (about 112 KB), reached after chunkDoublings chunks.
const (
	minChunk       = 16
	chunkDoublings = 6
	maxChunk       = minChunk << chunkDoublings
)

// Reserve does nothing: the log has no per-user table to size. It stays
// only for bench/probes.go's append probe.
func (l *Log) Reserve(int) {}

// Shard returns the log's one appender for any user. It stays only for
// bench/probes.go's append probe; other callers use Stream.
func (l *Log) Shard(int) *Shard { return &l.w }

// Append adds a record without locking, under the Stream contract. It
// stays only for bench/probes.go's append probe.
func (s *Shard) Append(r Record) { s.Emit(&r) }

// Emit copies the record onto the end of the list, making *Shard a
// trace.Stream.
func (s *Shard) Emit(r *Record) {
	last := len(s.chunks) - 1
	if last < 0 || len(s.chunks[last]) == cap(s.chunks[last]) {
		size := maxChunk
		if last+1 < chunkDoublings {
			size = minChunk << (last + 1)
		}
		s.chunks = append(s.chunks, make([]Record, 0, size))
		last++
	}
	s.chunks[last] = append(s.chunks[last], *r)
}

// Add appends a record under the log's lock. Safe for concurrent use.
func (l *Log) Add(r Record) { l.Emit(&r) }

// Emit copies the record into the log under its lock, making *Log a Sink.
func (l *Log) Emit(r *Record) {
	l.mu.Lock()
	l.w.Emit(r)
	l.mu.Unlock()
}

// Stream returns the log's one lock-free appender.
func (l *Log) Stream(int) Stream { return &l.w }

var _ Sink = (*Log)(nil)

// snapshot copies the chunk headers under the log's lock. Later locked
// appends extend the last chunk past the captured length or add chunks, so
// they cannot race with a reader walking the copy, which sees exactly the
// prefix that existed when it was taken. Entries below the captured
// lengths never mutate.
func (l *Log) snapshot() [][]Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.w.chunks)
}

// Len returns the number of records.
func (l *Log) Len() int {
	n := 0
	for _, c := range l.snapshot() {
		n += len(c)
	}
	return n
}

// Records returns a copy of the log in emission order. The copy is O(n)
// and exists for callers that need a stable slice (replay input, test
// comparisons); analysis and serialization loops use Each.
func (l *Log) Records() []Record {
	out := make([]Record, 0, l.Len())
	l.Each(func(r *Record) { out = append(out, *r) })
	return out
}

// Each calls fn on every record in emission order, in place: no O(n) copy,
// and the log's lock is held only for a brief snapshot, not across fn. fn
// must not retain the pointer past the call. Lock-free appends must not
// run concurrently with Each.
func (l *Log) Each(fn func(*Record)) {
	for _, c := range l.snapshot() {
		for i := range c {
			fn(&c[i])
		}
	}
}

// Reset discards all records.
func (l *Log) Reset() {
	l.mu.Lock()
	l.w.chunks = nil
	l.mu.Unlock()
}

// WriteJSONL writes the log as one JSON object per line, in emission order.
// It walks a snapshot (the Each path) rather than a Records copy:
// serialization is slow, and neither the O(n) copy nor holding the log lock
// across the whole encode is needed — concurrent locked appends proceed
// while encoding runs.
func (l *Log) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	var encErr error
	l.Each(func(r *Record) {
		if encErr != nil {
			return
		}
		if err := enc.Encode(r); err != nil {
			encErr = fmt.Errorf("trace: encode record: %w", err)
		}
	})
	if encErr != nil {
		return encErr
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace: flush: %w", err)
	}
	return nil
}

// ReadJSONL parses a JSONL stream produced by WriteJSONL.
func ReadJSONL(r io.Reader) (*Log, error) {
	var l Log
	if _, err := DecodeJSONL(r, &l); err != nil {
		return nil, err
	}
	return &l, nil
}

// DecodeJSONL parses a JSONL stream produced by WriteJSONL, delivering each
// record to the sink as it is decoded — the streaming complement of
// ReadJSONL for consumers (like the Summarizer) that never need the
// materialized log. One decode buffer is reused across records, honouring
// the Sink ownership contract. A record without an op is rejected: only
// named ops decode, so every record delivered re-encodes. Errors name the
// failing record's line, counting one record per line as WriteJSONL writes
// them. Returns the number of records decoded.
func DecodeJSONL(r io.Reader, sink Sink) (int, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	n := 0
	var rec Record
	for {
		// Reset before each decode: a line that omits an omitempty field
		// (path, bytes, err, user_type) must not inherit the last record's.
		rec = Record{}
		if err := dec.Decode(&rec); err != nil {
			if err == io.EOF {
				return n, nil
			}
			return n, fmt.Errorf("trace: line %d: decode record: %w", n+1, err)
		}
		if rec.Op == 0 {
			return n, fmt.Errorf("trace: line %d: record has no op", n+1)
		}
		sink.Emit(&rec)
		n++
	}
}
