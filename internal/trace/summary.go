package trace

import "sync"

// Summarizer is the streaming trace sink: it folds each record into the
// Usage Analyzer's per-session and per-op accumulators the moment it is
// produced, instead of materializing the usage log first. Memory is
// O(active sessions): each Stream handle retires a session's per-file
// accumulators the moment the handle moves on to the next session (see
// Stream), so even unbounded session counts hold only one live accumulator
// per concurrent session stream — a full-record log of a 1000-user run
// holds tens of millions of Records; the Summarizer holds about a thousand
// small maps. A retired accumulator, map and file slab included, serves
// the next session to start, and Finish releases them all.
//
// Equivalence: the Summarizer reuses the exact analyzer that Analyze runs
// over a finished Log. A Log keeps records in emission order, so folding
// online visits records in the identical order and every float reduction
// accumulates in the identical sequence: Finish is bit-identical to
// Analyze(Log) on the same run, ULPs included (tested in summary_test.go
// and, over whole runs, in package core).
//
// Concurrency mirrors Log: Emit locks; Stream(user) returns a lock-free
// single-writer appender for the single-threaded DES hot path. Because all
// streams fold into one shared accumulator, streams of different users
// must also not run concurrently with each other — the DES guarantees
// this, and the wall-clock runner uses the locked Emit path.
type Summarizer struct {
	mu  sync.Mutex
	acc *analyzer
	fin *Analysis
}

// NewSummarizer returns an empty streaming sink.
func NewSummarizer() *Summarizer {
	return &Summarizer{acc: newAnalyzer()}
}

// Emit folds one record under the lock.
func (s *Summarizer) Emit(r *Record) {
	s.mu.Lock()
	s.acc.add(r)
	s.mu.Unlock()
}

// Stream returns a lock-free folder for the DES hot path. The user index is
// irrelevant to the fold — every stream feeds the shared accumulator — but
// each call returns a fresh handle with its own session-retirement tracker:
// a held handle observes its stream's sessions back to back (the simulator
// runs one session stream per handle, sessions contiguous and globally
// unique), so the moment a handle sees a new session id, the previous
// session's last operation has completed and its per-file accumulators are
// folded and recycled. Memory is O(active sessions) — one live accumulator
// per held handle — instead of O(all sessions), the shape unbounded session
// counts need. Producers that cannot guarantee contiguity (interleaved
// streams, the locked Emit path) simply never trigger retirement and fall
// back to folding everything at Finish.
func (s *Summarizer) Stream(int) Stream { return &summarizerStream{s: s} }

// summarizerStream folds without locking (single-threaded DES contract) and
// retires the previous session when its stream moves on to the next one.
// It holds its in-flight session's accumulator, so a record finds it without
// a map lookup; the pointer is resolved again only when the session changes.
type summarizerStream struct {
	s   *Summarizer
	cur int         // session id of the stream's in-flight session
	sa  *sessionAgg // cur's accumulator; nil until the first record
}

func (st *summarizerStream) Emit(r *Record) {
	acc := st.s.acc
	if st.sa == nil || r.Session != st.cur {
		if st.sa != nil {
			acc.retire(st.cur)
		}
		st.cur, st.sa = r.Session, acc.session(r)
	}
	acc.fold(st.sa, r)
}

// Ops returns the number of records folded so far.
func (s *Summarizer) Ops() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.acc.a.Ops
}

// Finish completes the reduction and returns the Analysis. The result is
// cached: further Emits are not allowed after Finish, and repeated calls
// return the same Analysis.
func (s *Summarizer) Finish() *Analysis {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fin == nil {
		s.fin = s.acc.finish()
	}
	return s.fin
}

var _ Sink = (*Summarizer)(nil)
