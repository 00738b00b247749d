package trace

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Windows is the transient-response trace sink: it buckets every record into
// fixed-width wall-clock (virtual time) windows by completion time and
// reduces each window to throughput, error counts, and response-time
// percentiles. Where the Summarizer answers "what did the run average out
// to", Windows answers "what happened minute by minute" — the view a crash,
// outage, or login storm needs, since recovery is precisely the part a
// steady-state mean hides.
//
// Memory is O(records): each window keeps its response samples until Finish
// so percentiles are exact, not sketched. Transient figures run one sweep
// point at moderate scale, where that is cheap; population-scale runs keep
// the Summarizer as their primary sink and attach Windows through Tee only
// when the windowed view is wanted.
//
// The windows are a dense slice indexed by completion time over width, so
// a collector holds at most maxWindows of them: a record completing past
// the last is counted, not kept, and makes Finish fail.
//
// Concurrency mirrors Summarizer: Emit locks; Stream returns a lock-free
// folder for the single-threaded DES hot path.
type Windows struct {
	mu    sync.Mutex
	width float64
	wins  []windowAcc
	// past counts the records completing at or after maxWindows·width,
	// and last is the latest such completion, µs.
	past int64
	last float64
}

// maxWindows bounds a collector's windows. At a 10 s width they cover 121
// days of virtual time; the transient figures use tens of windows.
const maxWindows = 1 << 20

// windowAcc accumulates one window.
type windowAcc struct {
	ops   int64
	errs  int64
	bytes int64
	sum   float64
	resp  []float64
}

// WindowStats is one reduced window.
type WindowStats struct {
	// Start and End bound the window, virtual µs.
	Start float64 `json:"start_us"`
	End   float64 `json:"end_us"`
	// Ops is the number of operations that completed in the window.
	Ops int64 `json:"ops"`
	// Errors is how many of them failed.
	Errors int64 `json:"errors"`
	// Bytes is the data transferred by operations completing in the window.
	Bytes int64 `json:"bytes"`
	// MeanResponse, P50, and P95 summarize response time, µs (0 when the
	// window saw no completions).
	MeanResponse float64 `json:"mean_response_us"`
	P50          float64 `json:"p50_us"`
	P95          float64 `json:"p95_us"`
	// Availability is the fraction of completions that succeeded. A window
	// with no completions reports 0 — under a full outage with hard-mount
	// retries nothing completes, which is exactly unavailability.
	Availability float64 `json:"availability"`
}

// NewWindows returns a collector with the given window width in virtual µs.
func NewWindows(width float64) *Windows {
	if width <= 0 || math.IsNaN(width) {
		width = 1e6
	}
	return &Windows{width: width}
}

// add folds one record into its completion-time window.
func (w *Windows) add(r *Record) {
	t := r.Start + r.Elapsed
	if t < 0 || math.IsNaN(t) {
		t = 0
	}
	// Compare in floats before converting: t/width may be beyond any int,
	// +Inf, or NaN (+Inf over an infinite width).
	q := t / w.width
	if !(q < maxWindows) {
		w.past++
		w.last = max(w.last, t)
		return
	}
	i := int(q)
	for i >= len(w.wins) {
		w.wins = append(w.wins, windowAcc{})
	}
	acc := &w.wins[i]
	acc.ops++
	if r.Err != "" {
		acc.errs++
	}
	acc.bytes += r.Bytes
	acc.sum += r.Elapsed
	acc.resp = append(acc.resp, r.Elapsed)
}

// Emit folds one record under the lock.
func (w *Windows) Emit(r *Record) {
	w.mu.Lock()
	w.add(r)
	w.mu.Unlock()
}

// Stream returns a lock-free folder for the DES hot path (single-threaded
// schedule; see Sink).
func (w *Windows) Stream(int) Stream { return windowsStream{w} }

type windowsStream struct{ w *Windows }

func (s windowsStream) Emit(r *Record) { s.w.add(r) }

var _ Sink = (*Windows)(nil)

// percentile returns the nearest-rank p-th percentile of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// Finish reduces the windows, trailing empty windows trimmed. It fails when
// a record completed past the last window the collector holds. Safe to
// call repeatedly; further Emits after Finish fold into later calls'
// results.
func (w *Windows) Finish() ([]WindowStats, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.past > 0 {
		return nil, fmt.Errorf("trace: %d records complete past the %d windows of trace.window_us %v, the last at %v µs; widen the window",
			w.past, maxWindows, w.width, w.last)
	}
	last := len(w.wins)
	for last > 0 && w.wins[last-1].ops == 0 {
		last--
	}
	out := make([]WindowStats, 0, last)
	for i := 0; i < last; i++ {
		acc := &w.wins[i]
		st := WindowStats{
			Start:  float64(i) * w.width,
			End:    float64(i+1) * w.width,
			Ops:    acc.ops,
			Errors: acc.errs,
			Bytes:  acc.bytes,
		}
		if acc.ops > 0 {
			sorted := make([]float64, len(acc.resp))
			copy(sorted, acc.resp)
			sort.Float64s(sorted)
			st.MeanResponse = acc.sum / float64(acc.ops)
			st.P50 = percentile(sorted, 50)
			st.P95 = percentile(sorted, 95)
			st.Availability = float64(acc.ops-acc.errs) / float64(acc.ops)
		}
		out = append(out, st)
	}
	return out, nil
}

// Tee fans every record out to two sinks in order (primary first), so a run
// can keep its full log or streaming summary and grow the windowed view on
// the side. The record ownership contract holds: both sinks see the pointer
// only for the duration of the call, and because the primary is called
// first with an unmodified record, analyses over the primary are
// bit-identical with or without the tee.
type Tee struct {
	primary, secondary Sink
}

// NewTee returns a sink duplicating records to primary, then secondary.
func NewTee(primary, secondary Sink) *Tee {
	return &Tee{primary: primary, secondary: secondary}
}

// Emit forwards to both sinks.
func (t *Tee) Emit(r *Record) {
	t.primary.Emit(r)
	t.secondary.Emit(r)
}

// Stream returns a single-writer appender forwarding to both sinks'
// streams.
func (t *Tee) Stream(user int) Stream {
	return teeStream{a: t.primary.Stream(user), b: t.secondary.Stream(user)}
}

type teeStream struct{ a, b Stream }

func (s teeStream) Emit(r *Record) {
	s.a.Emit(r)
	s.b.Emit(r)
}

var _ Sink = (*Tee)(nil)
