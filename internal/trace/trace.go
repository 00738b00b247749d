// Package trace records the stream of file I/O operations the User Simulator
// executes (the "usage log file" in the thesis's Figure 4.1 block diagram)
// and implements the Usage Analyzer that reduces a log to the per-session
// measures the thesis plots: average access-per-byte, average file size, and
// average number of files referenced (Figures 5.3-5.5), the per-category
// usage of Table 5.2, and per-call access size and response time summaries
// (Table 5.3). One fold makes all of them, online as records are emitted
// (Summarizer) or over a kept log (Analyze). The fold finds a session's
// per-file accumulator by the record's file slot when the producer set
// one, and by its path otherwise.
//
// A kept log (Log) stores each record packed, without pointers, and its
// strings once in a per-log table, so the collector does not scan it;
// readers get the records back unpacked, one reused Record per walk.
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
	// Slot is the producer's index of the file within its session, plus
	// one, so the Usage Analyzer indexes its per-file accumulators instead
	// of hashing Path. 0 means the record carries no slot: it was decoded
	// from JSONL, which does not carry the field, or built by hand. A
	// producer sets Slot on every record of a session or on none, and
	// within a session slots and paths correspond one to one. Slots are
	// small: the analyzer sizes a per-session table by the largest.
	Slot int32 `json:"-"`
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
// A record is kept packed, as an 80-byte entry that holds no pointer: its
// scalars, and UserType, Path and Err as indexes into the log's string
// table, which keeps each distinct string once. Chunks of pointer-free
// entries are allocated noscan, so the collector never walks the growing
// log, and an append that adds no string to the table stores no pointer,
// so it pays no write barrier while a collection runs. Readers get the
// records back unpacked (Each).
//
// Entries live in a list of fixed-capacity chunks that never move once
// allocated: an append writes into the last chunk's spare capacity, or into
// a fresh chunk when it is full, so no entry is ever copied again. Chunk
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
	chunks [][]entry // every chunk but the last is full; none is empty
	// strs is the string table the entries index; strs[0] is "" once the
	// first chunk exists. ids inverts it, "" excluded.
	strs []string
	ids  map[string]uint32
	// lastType and lastTypeID cache the last UserType interned: a session
	// stream repeats its user's type on every record.
	lastType   string
	lastTypeID uint32
	// hints caches the path id last interned for recent (session, slot)
	// pairs, direct mapped. A session works through its files one at a
	// time, but the sessions of concurrent users interleave their records,
	// so a one-entry cache would rarely hit. A record without a slot uses
	// slot 0, whose entry holds the session's last path.
	hints [64]pathHint
}

// pathHint is one hints entry.
type pathHint struct {
	session int
	slot    int32
	id      uint32
}

// entry is one Record packed without pointers (see Log); a test holds it
// to fixed-size scalars and 80 bytes.
type entry struct {
	session, user, category int
	op                      Op
	bytes, fileSize         int64
	start, elapsed          float64
	userType, path, err     uint32 // indexes into the log's string table
	slot                    int32
}

// Chunk capacities run minChunk, 2·minChunk, ... up to maxChunk entries
// (80 KB), reached after chunkDoublings chunks.
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

// Emit packs the record onto the end of the list, making *Shard a
// trace.Stream.
func (s *Shard) Emit(r *Record) {
	last := len(s.chunks) - 1
	if last < 0 || len(s.chunks[last]) == cap(s.chunks[last]) {
		size := maxChunk
		if last+1 < chunkDoublings {
			size = minChunk << (last + 1)
		}
		if last < 0 {
			s.strs, s.ids = []string{""}, make(map[string]uint32)
		}
		s.chunks = append(s.chunks, make([]entry, 0, size))
		last++
	}
	if r.UserType != s.lastType {
		s.lastType, s.lastTypeID = r.UserType, s.intern(r.UserType)
	}
	path, errID := s.pathID(r), s.intern(r.Err)
	// Extend the chunk and fill the new entry in place: appending an entry
	// literal builds it on the stack and copies it in.
	n := len(s.chunks[last])
	s.chunks[last] = s.chunks[last][:n+1]
	e := &s.chunks[last][n]
	e.session, e.user, e.category, e.op = r.Session, r.User, r.Category, r.Op
	e.bytes, e.fileSize, e.start, e.elapsed = r.Bytes, r.FileSize, r.Start, r.Elapsed
	e.userType, e.path, e.err, e.slot = s.lastTypeID, path, errID, r.Slot
}

// pathID returns the id of r's path, from hints when they hold its session
// and slot. A hint is checked against the path itself, so a record that
// breaks the Slot contract is still logged with its own path.
func (s *Shard) pathID(r *Record) uint32 {
	h := &s.hints[uint(r.Session*31+int(r.Slot))%uint(len(s.hints))]
	if h.session != r.Session || h.slot != r.Slot || s.strs[h.id] != r.Path {
		*h = pathHint{session: r.Session, slot: r.Slot, id: s.intern(r.Path)}
	}
	return h.id
}

// intern returns v's index in the string table, adding v on first use.
func (s *Shard) intern(v string) uint32 {
	if v == "" {
		return 0
	}
	id, ok := s.ids[v]
	if !ok {
		id = uint32(len(s.strs))
		s.strs = append(s.strs, v)
		s.ids[v] = id
	}
	return id
}

// unpack writes the entry's record into r, its strings looked up in strs.
func (e *entry) unpack(r *Record, strs []string) {
	*r = Record{
		Session: e.session, User: e.user, UserType: strs[e.userType], Op: e.op,
		Path: strs[e.path], Category: e.category, Bytes: e.bytes, FileSize: e.fileSize,
		Start: e.start, Elapsed: e.elapsed, Err: strs[e.err], Slot: e.slot,
	}
}

// Add appends a record under the log's lock. Safe for concurrent use.
func (l *Log) Add(r Record) { l.Emit(&r) }

// Emit packs the record into the log under its lock, making *Log a Sink.
func (l *Log) Emit(r *Record) {
	l.mu.Lock()
	l.w.Emit(r)
	l.mu.Unlock()
}

// Stream returns the log's one lock-free appender.
func (l *Log) Stream(int) Stream { return &l.w }

var _ Sink = (*Log)(nil)

// snapshot copies the chunk headers and the string table's header under
// the log's lock. Later locked appends extend the last chunk or the table
// past the captured lengths, or add chunks, so they cannot race with a
// reader walking the copy, which sees exactly the prefix that existed when
// it was taken. Entries and strings below the captured lengths never
// mutate, and every captured entry indexes a captured string.
func (l *Log) snapshot() ([][]entry, []string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.w.chunks), l.w.strs
}

// Len returns the number of records.
func (l *Log) Len() int {
	chunks, _ := l.snapshot()
	n := 0
	for _, c := range chunks {
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

// Each calls fn on every record in emission order, with no O(n) copy: it
// unpacks each entry into one Record that it reuses for the whole walk, so
// fn must not retain the pointer past the call, as the Sink contract asks
// of every record reader. The log's lock is held only for a brief
// snapshot, not across fn. Lock-free appends must not run concurrently
// with Each.
func (l *Log) Each(fn func(*Record)) {
	chunks, strs := l.snapshot()
	var r Record
	for _, c := range chunks {
		for i := range c {
			c[i].unpack(&r, strs)
			fn(&r)
		}
	}
}

// Reset discards all records and the string table.
func (l *Log) Reset() {
	l.mu.Lock()
	l.w = Shard{}
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
