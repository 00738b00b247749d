package trace

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// finish reduces w, failing the test on an error.
func finish(t *testing.T, w *Windows) []WindowStats {
	t.Helper()
	wins, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return wins
}

func TestWindowsBucketsByCompletionTime(t *testing.T) {
	w := NewWindows(100)
	emit := w.Stream(0).Emit
	// Starts at 40, takes 80: completes at 120 → window 1, not 0.
	emit(&Record{Start: 40, Elapsed: 80, Bytes: 10})
	emit(&Record{Start: 10, Elapsed: 20, Bytes: 5})              // window 0
	emit(&Record{Start: 150, Elapsed: 30, Err: "EIO", Bytes: 0}) // window 1, errored
	wins := finish(t, w)
	if len(wins) != 2 {
		t.Fatalf("windows = %d, want 2", len(wins))
	}
	if wins[0].Ops != 1 || wins[0].Bytes != 5 {
		t.Errorf("window 0 = %+v, want 1 op / 5 B", wins[0])
	}
	if wins[1].Ops != 2 || wins[1].Errors != 1 {
		t.Errorf("window 1 = %+v, want 2 ops / 1 error", wins[1])
	}
	if wins[1].Availability != 0.5 {
		t.Errorf("window 1 availability = %v, want 0.5", wins[1].Availability)
	}
	if wins[0].Start != 0 || wins[0].End != 100 || wins[1].Start != 100 || wins[1].End != 200 {
		t.Errorf("window bounds wrong: %+v", wins)
	}
}

// TestWindowsBoundsRecordsPastTheLastWindow feeds records completing far
// past the collector's last window, one at 1e300 µs, whose window index no
// int holds, and one at +Inf. Neither may panic or grow the windows; Finish
// must report them, naming the spec knob to change.
func TestWindowsBoundsRecordsPastTheLastWindow(t *testing.T) {
	w := NewWindows(1e6)
	w.Emit(&Record{Start: 10, Elapsed: 10})
	w.Emit(&Record{Start: 1e300, Elapsed: 10})
	w.Stream(0).Emit(&Record{Start: maxWindows * 1e6, Elapsed: 0})
	w.Emit(&Record{Start: math.Inf(1), Elapsed: 10})
	if len(w.wins) != 1 {
		t.Errorf("collector grew %d windows, want 1", len(w.wins))
	}
	wins, err := w.Finish()
	if err == nil || !strings.Contains(err.Error(), "trace.window_us") || !strings.Contains(err.Error(), "3 records") {
		t.Errorf("Finish = %d windows, err %v; want an error naming trace.window_us and 3 records", len(wins), err)
	}
}

func TestWindowsEmptyWindowIsUnavailable(t *testing.T) {
	w := NewWindows(100)
	w.Emit(&Record{Start: 10, Elapsed: 10})
	w.Emit(&Record{Start: 350, Elapsed: 10}) // window 3; 1 and 2 stay empty
	wins := finish(t, w)
	if len(wins) != 4 {
		t.Fatalf("windows = %d, want 4 (interior gaps kept)", len(wins))
	}
	for i := 1; i <= 2; i++ {
		if wins[i].Ops != 0 || wins[i].Availability != 0 {
			t.Errorf("empty window %d = %+v, want 0 ops / 0 availability", i, wins[i])
		}
	}
}

func TestWindowsTrimsTrailingEmpties(t *testing.T) {
	w := NewWindows(100)
	w.Emit(&Record{Start: 10, Elapsed: 10})
	// A record far out, then none after: Finish up to the last non-empty.
	w.Emit(&Record{Start: 910, Elapsed: 10})
	wins := finish(t, w)
	if len(wins) != 10 {
		t.Fatalf("windows = %d, want 10", len(wins))
	}
	if wins[9].Ops != 1 {
		t.Errorf("last window = %+v, want the far record", wins[9])
	}
}

func TestWindowsPercentiles(t *testing.T) {
	w := NewWindows(1000)
	for i := 1; i <= 100; i++ {
		w.Emit(&Record{Start: 0, Elapsed: float64(i)})
	}
	wins := finish(t, w)
	if len(wins) != 1 {
		t.Fatalf("windows = %d, want 1", len(wins))
	}
	if wins[0].P50 != 50 || wins[0].P95 != 95 {
		t.Errorf("p50/p95 = %v/%v, want 50/95 (nearest rank)", wins[0].P50, wins[0].P95)
	}
	if wins[0].MeanResponse != 50.5 {
		t.Errorf("mean = %v, want 50.5", wins[0].MeanResponse)
	}
}

// TestTeePrimaryUnchanged: teeing a Windows collector onto a primary sink
// must leave the primary's analysis bit-identical — the record pointer is
// passed through unmodified, primary first.
func TestTeePrimaryUnchanged(t *testing.T) {
	recs := []Record{
		{Session: 0, User: 0, Op: OpRead, Path: "/a", Bytes: 100, FileSize: 400, Start: 1, Elapsed: 10},
		{Session: 0, User: 0, Op: OpWrite, Path: "/a", Bytes: 50, FileSize: 400, Start: 20, Elapsed: 5},
		{Session: 1, User: 0, Op: OpRead, Path: "/b", Bytes: 10, FileSize: 40, Start: 40, Elapsed: 2, Err: "EIO"},
	}
	feed := func(s Sink) {
		emit := s.Stream(0).Emit
		for i := range recs {
			r := recs[i]
			emit(&r)
		}
	}
	plain := NewSummarizer()
	feed(plain)
	teedSummary := NewSummarizer()
	wins := NewWindows(25)
	feed(NewTee(teedSummary, wins))
	if !reflect.DeepEqual(plain.Finish(), teedSummary.Finish()) {
		t.Error("tee changed the primary sink's analysis")
	}
	ws := finish(t, wins)
	var ops int64
	for _, w := range ws {
		ops += w.Ops
	}
	if ops != int64(len(recs)) {
		t.Errorf("windows saw %d ops, want %d", ops, len(recs))
	}
}
