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
	"sync"
	"sync/atomic"
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

// Log collects records in per-user shards. The zero value is ready to use.
//
// Two append paths exist:
//
//   - Add locks the log and is safe for concurrent use from ordinary
//     goroutines (the wall-clock runner, JSONL loading, tests).
//   - Shard(user).Append is lock-free: it is the session hot path under the
//     DES kernel, where the whole simulation runs on one goroutine and a
//     mutex would be pure overhead. A shard must have at most one writer at
//     a time, and lock-free appends must not race with readers.
//
// Every record is stamped with a global insertion sequence number, so
// iteration (Each, Records, WriteJSONL) merges the shards back into exact
// insertion order — analysis output is independent of how records were
// sharded.
type Log struct {
	mu     sync.Mutex
	shards []*Shard
	seq    atomic.Int64
	wrap   int // shard-table bound; 0 means defaultMaxShards
}

// Shard holds one user's records. Within a run exactly one simulated
// process writes a given user's operations, so appends need no lock.
//
// Records live in a list of fixed-capacity chunks that never move once
// allocated: an append writes into the last chunk's spare capacity, or into
// a fresh chunk when it is full, so no record is ever copied again. Chunk
// capacities double from minChunk up to maxChunk, which bounds a shard's
// slack to one partly filled chunk — small for the many near-empty shards
// of a large population, at most maxChunk-1 entries for a busy one.
type Shard struct {
	log    *Log
	chunks [][]entry // every chunk but the last is full; none is empty
}

// entry is one record with its global insertion stamp.
type entry struct {
	seq int64
	rec Record
}

// Chunk capacities run minChunk, 2·minChunk, ... up to maxChunk entries
// (about 120 KB), reached after chunkDoublings chunks.
const (
	minChunk       = 16
	chunkDoublings = 6
	maxChunk       = minChunk << chunkDoublings
)

// defaultMaxShards bounds the shard table when Reserve has not been called.
// User indices above the bound wrap around and share shards — harmless for
// correctness (the insertion stamps restore global order regardless of
// sharding, and the DES runs one process at a time), and it keeps a corrupt
// or hostile user index in a loaded JSONL log from driving unbounded
// allocation. A run whose spec declares more users lifts the bound to its
// actual population via Reserve; the table itself still grows on demand, so
// a sparse population never allocates the full span.
const defaultMaxShards = 1 << 12

// Reserve lifts the shard-table bound to at least n users, so populations
// beyond defaultMaxShards get one shard per user instead of wrapping. Call
// it before resolving streams for users past the default bound: a stream
// handle resolved earlier stays valid but keeps its wrapped shard. Growth
// stays on demand — Reserve sizes the bound, not the table.
func (l *Log) Reserve(n int) {
	l.mu.Lock()
	if n > l.bound() {
		l.wrap = n
	}
	l.mu.Unlock()
}

// bound returns the effective shard-table bound; l.mu must be held.
func (l *Log) bound() int {
	if l.wrap > 0 {
		return l.wrap
	}
	return defaultMaxShards
}

// Shard returns the shard for a user index (negative indices share shard
// zero; indices beyond the bound wrap), growing the shard table as needed.
// The returned shard is stable: callers on the hot path resolve it once
// and append without locking.
func (l *Log) Shard(user int) *Shard {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.shardLocked(user)
}

// shardLocked resolves (and grows to) a user's shard; l.mu must be held.
func (l *Log) shardLocked(user int) *Shard {
	if user < 0 {
		user = 0
	}
	user %= l.bound()
	for user >= len(l.shards) {
		l.shards = append(l.shards, &Shard{log: l})
	}
	return l.shards[user]
}

// Append adds a record to the shard without locking. The caller must be the
// shard's only writer (the DES kernel guarantees this: one process runs at
// a time and each user's sessions run on one process).
func (s *Shard) Append(r Record) { s.Emit(&r) }

// Emit copies the record into the shard, making *Shard a trace.Stream.
func (s *Shard) Emit(r *Record) {
	last := len(s.chunks) - 1
	if last < 0 || len(s.chunks[last]) == cap(s.chunks[last]) {
		size := maxChunk
		if last+1 < chunkDoublings {
			size = minChunk << (last + 1)
		}
		s.chunks = append(s.chunks, make([]entry, 0, size))
		last++
	}
	c := s.chunks[last]
	c = c[:len(c)+1]
	e := &c[len(c)-1]
	e.seq = s.log.seq.Add(1)
	e.rec = *r
	s.chunks[last] = c
}

// Len returns the number of records in the shard.
func (s *Shard) Len() int {
	n := 0
	for _, c := range s.chunks {
		n += len(c)
	}
	return n
}

// Add appends a record under the log's lock, routing it to the record's
// user shard. Safe for concurrent use; slower than Shard(...).Append.
func (l *Log) Add(r Record) {
	l.mu.Lock()
	l.shardLocked(r.User).Append(r)
	l.mu.Unlock()
}

// Emit copies the record into the log under its lock, making *Log a Sink.
func (l *Log) Emit(r *Record) { l.Add(*r) }

// Stream returns the user's shard as a lock-free single-writer appender.
func (l *Log) Stream(user int) Stream { return l.Shard(user) }

var _ Sink = (*Log)(nil)

// view is a point-in-time snapshot of the shard contents: each shard's
// chunk headers are copied under the log's lock, so later locked appends —
// which extend the last chunk's length or add chunks — cannot race with a
// reader walking the snapshot, which sees exactly the prefix that existed
// when it was taken. Entries below the captured lengths never mutate.
type view [][][]entry

func (l *Log) snapshot() view {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, s := range l.shards {
		n += len(s.chunks)
	}
	headers := make([][]entry, 0, n) // one allocation backs every shard's copy
	v := make(view, len(l.shards))
	for i, s := range l.shards {
		start := len(headers)
		headers = append(headers, s.chunks...)
		v[i] = headers[start:len(headers):len(headers)]
	}
	return v
}

// mergeCursor is one shard's position in the k-way merge.
type mergeCursor struct {
	shard, chunk, idx int
	seq               int64
}

// each merges the snapshot's shards in global insertion order with a
// cursor min-heap: O(n log s) over n records and s shards, so iteration
// cost stays flat as user counts (and therefore shard counts) grow.
func (v view) each(fn func(*Record)) {
	heap := make([]mergeCursor, 0, len(v))
	push := func(c mergeCursor) {
		heap = append(heap, c)
		i := len(heap) - 1
		for i > 0 {
			parent := (i - 1) / 2
			if heap[parent].seq <= heap[i].seq {
				break
			}
			heap[i], heap[parent] = heap[parent], heap[i]
			i = parent
		}
	}
	siftDown := func() {
		n := len(heap)
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			smallest := i
			if l < n && heap[l].seq < heap[smallest].seq {
				smallest = l
			}
			if r < n && heap[r].seq < heap[smallest].seq {
				smallest = r
			}
			if smallest == i {
				return
			}
			heap[i], heap[smallest] = heap[smallest], heap[i]
			i = smallest
		}
	}
	for si, chunks := range v {
		if len(chunks) > 0 {
			push(mergeCursor{shard: si, seq: chunks[0][0].seq})
		}
	}
	for len(heap) > 0 {
		top := &heap[0]
		chunks := v[top.shard]
		fn(&chunks[top.chunk][top.idx].rec)
		top.idx++
		if top.idx == len(chunks[top.chunk]) {
			top.chunk, top.idx = top.chunk+1, 0
		}
		if top.chunk < len(chunks) {
			top.seq = chunks[top.chunk][top.idx].seq
			siftDown()
			continue
		}
		heap[0] = heap[len(heap)-1]
		heap = heap[:len(heap)-1]
		siftDown()
	}
}

// Len returns the number of records.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, s := range l.shards {
		n += s.Len()
	}
	return n
}

// Records returns a copy of the log in insertion order.
//
// Deprecated-adjacent: the copy is O(n) and exists for callers that need a
// stable slice (replay input, test golden comparisons). Analysis and
// serialization loops should use Each, which iterates the shards in place
// under a snapshot without copying.
func (l *Log) Records() []Record {
	out := make([]Record, 0, l.Len())
	l.Each(func(r *Record) { out = append(out, *r) })
	return out
}

// Each calls fn on every record in insertion order, merging the per-user
// shards in place — no O(n) copy, and the log's lock is held only for a
// brief snapshot, not across fn. fn must not retain the pointer past the
// call. Lock-free shard appends must not run concurrently with Each.
func (l *Log) Each(fn func(*Record)) {
	l.snapshot().each(fn)
}

// Reset discards all records.
func (l *Log) Reset() {
	l.mu.Lock()
	l.shards = nil
	l.seq.Store(0)
	l.mu.Unlock()
}

// WriteJSONL writes the log as one JSON object per line, in insertion
// order. It iterates a shard snapshot (the Each path) rather than a
// Records copy: serialization is slow, and neither the O(n) copy nor
// holding the log lock across the whole encode is needed — concurrent
// locked appends proceed while encoding runs.
func (l *Log) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	var encErr error
	l.snapshot().each(func(r *Record) {
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
