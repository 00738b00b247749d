package trace

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// feed sends the same record stream to a Log (via per-user streams, the DES
// hot path) and to a Summarizer, in the same order.
func feed(recs []Record, l *Log, s *Summarizer) {
	for i := range recs {
		l.Stream(recs[i].User).Emit(&recs[i])
		s.Stream(recs[i].User).Emit(&recs[i])
	}
}

// slotSessions gives a random subset of the records' sessions file slots,
// as the simulator does, and returns the records with every slot cleared.
// A slot here is the path's first-reference index in its session, plus
// one; a record without a path gets one too, which the fold must ignore.
func slotSessions(r *rand.Rand, recs []Record) []Record {
	slotted := map[int]map[string]int32{}
	for i := range recs {
		m, ok := slotted[recs[i].Session]
		if !ok {
			if r.Intn(2) == 0 {
				m = map[string]int32{}
			}
			slotted[recs[i].Session] = m
		}
		if m == nil {
			continue
		}
		if _, ok := m[recs[i].Path]; !ok {
			m[recs[i].Path] = int32(len(m) + 1)
		}
		recs[i].Slot = m[recs[i].Path]
	}
	bare := slices.Clone(recs)
	for i := range bare {
		bare[i].Slot = 0
	}
	return bare
}

// analyzeRecords folds records through Analyze over a locked Log.
func analyzeRecords(recs []Record) *Analysis {
	var l Log
	for _, rec := range recs {
		l.Add(rec)
	}
	return Analyze(&l)
}

// TestQuickSummarizerMatchesAnalyze is the tentpole equivalence property:
// for any record stream, folding records as they are emitted (Summarizer)
// produces a bit-identical Analysis to materializing the full Log and
// analyzing it afterwards — every float, every ULP, including session rows,
// per-op summaries, and derived measures. Some sessions carry file slots,
// and the fold by slot must equal the fold by path over the same records
// with no slots.
func TestQuickSummarizerMatchesAnalyze(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw % 128)
		recs := make([]Record, n)
		for i := range recs {
			recs[i] = randomRecord(r)
		}
		bare := slotSessions(r, recs)
		var l Log
		s := NewSummarizer()
		feed(recs, &l, s)

		logged := Analyze(&l)
		streamed := s.Finish()
		if !reflect.DeepEqual(logged, streamed) {
			t.Logf("log  = %+v", logged)
			t.Logf("stream = %+v", streamed)
			return false
		}
		if byPath := analyzeRecords(bare); !reflect.DeepEqual(byPath, streamed) {
			t.Logf("by path = %+v", byPath)
			t.Logf("by slot = %+v", streamed)
			return false
		}
		// Derived measures agree exactly too.
		if logged.MeanResponsePerByte() != streamed.MeanResponsePerByte() {
			return false
		}
		if logged.Availability() != streamed.Availability() {
			return false
		}
		apb := func(u SessionUsage) float64 { return u.AccessPerByte }
		return reflect.DeepEqual(logged.SessionValues(apb), streamed.SessionValues(apb))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSummarizerEmitMatchesStream confirms the locked Emit path and the
// lock-free Stream path fold identically (the wall-clock runner uses Emit;
// the DES uses Stream).
func TestSummarizerEmitMatchesStream(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	recs := make([]Record, 200)
	for i := range recs {
		recs[i] = randomRecord(r)
	}
	viaEmit, viaStream := NewSummarizer(), NewSummarizer()
	for i := range recs {
		viaEmit.Emit(&recs[i])
		viaStream.Stream(recs[i].User).Emit(&recs[i])
	}
	if !reflect.DeepEqual(viaEmit.Finish(), viaStream.Finish()) {
		t.Error("Emit and Stream paths diverge")
	}
}

// TestSummarizerDoesNotRetainRecords drives one pooled Record struct
// through the sink, mutating it between emits — the producer-side reuse the
// Sink ownership contract allows. The fold must capture each emit's values,
// not alias the pointer.
func TestSummarizerDoesNotRetainRecords(t *testing.T) {
	s := NewSummarizer()
	var rec Record
	for i := 0; i < 3; i++ {
		rec = Record{Session: i, User: i, Op: OpRead, Path: "/f", Bytes: int64(100 * (i + 1)), FileSize: 1000, Elapsed: float64(i)}
		s.Emit(&rec)
	}
	rec = Record{} // trash the pooled struct after the last emit
	a := s.Finish()
	if len(a.Sessions) != 3 {
		t.Fatalf("sessions = %d, want 3", len(a.Sessions))
	}
	for i, ses := range a.Sessions {
		if ses.Bytes != int64(100*(i+1)) {
			t.Errorf("session %d bytes = %d, want %d", i, ses.Bytes, 100*(i+1))
		}
	}
	if a.Ops != 3 {
		t.Errorf("ops = %d", a.Ops)
	}
}

// TestSummarizerOpsAndRepeatedFinish checks that every record is folded and
// that Finish is idempotent.
func TestSummarizerOpsAndRepeatedFinish(t *testing.T) {
	s := NewSummarizer()
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		rec := randomRecord(r)
		s.Emit(&rec)
	}
	a, b := s.Finish(), s.Finish()
	if a != b {
		t.Error("repeated Finish returned distinct Analyses")
	}
	if a.Ops != 50 {
		t.Errorf("ops = %d after 50 emits", a.Ops)
	}
}

// TestDecodeJSONLStreams decodes a serialized log directly into a
// Summarizer and checks the result matches analyzing the materialized log —
// the `wlgen analyze` path.
func TestDecodeJSONLStreams(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var l Log
	for i := 0; i < 120; i++ {
		l.Add(randomRecord(r))
	}
	var buf strings.Builder
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	s := NewSummarizer()
	n, err := DecodeJSONL(strings.NewReader(buf.String()), s)
	if err != nil {
		t.Fatal(err)
	}
	if n != l.Len() {
		t.Fatalf("decoded %d of %d", n, l.Len())
	}
	if !reflect.DeepEqual(Analyze(&l), s.Finish()) {
		t.Error("streamed decode diverges from materialized analysis")
	}
}

// TestDiscardSink drops records without observing them.
func TestDiscardSink(t *testing.T) {
	var d Discard
	rec := Record{Op: OpRead}
	d.Emit(&rec)
	d.Stream(3).Emit(&rec)
}

// TestQuickSummarizerRetirementMatchesAnalyze is the retirement variant of
// the equivalence property: when records reach the Summarizer the way the
// simulator produces them — one held Stream handle per user, sessions
// contiguous and globally unique — each session's accumulator is retired as
// soon as its stream moves on, yet the Analysis stays bit-identical to
// materializing the full Log. Some records carry an Op outside the known
// range, which only Go code can build; each must still get its own ByOp row.
func TestQuickSummarizerRetirementMatchesAnalyze(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw%128) + 1
		recs := make([]Record, n)
		counts := map[Op]int64{}
		for i := range recs {
			recs[i] = randomRecord(r)
			if r.Intn(8) == 0 {
				recs[i].Op = []Op{-2, 0, OpMkdir + 1, 77}[r.Intn(4)]
			}
			counts[recs[i].Op]++
			// Globally unique session ids, contiguous per user after the
			// stable sort below — the simulator's contract.
			recs[i].Session = recs[i].User*1000 + recs[i].Session
		}
		sort.SliceStable(recs, func(i, j int) bool {
			if recs[i].User != recs[j].User {
				return recs[i].User < recs[j].User
			}
			return recs[i].Session < recs[j].Session
		})
		// Slotted and slot-less sessions share the recycled accumulators.
		bare := slotSessions(r, recs)

		var l Log
		s := NewSummarizer()
		handles := make(map[int]Stream)
		for i := range recs {
			u := recs[i].User
			h, ok := handles[u]
			if !ok {
				h = s.Stream(u)
				handles[u] = h
			}
			l.Stream(u).Emit(&recs[i])
			h.Emit(&recs[i])
		}
		// Retirement must actually have happened: at most one live
		// accumulator per held handle.
		if live := len(s.acc.sessions); live > len(handles) {
			t.Logf("live sessions = %d > handles = %d", live, len(handles))
			return false
		}
		got := s.Finish()
		for i, os := range got.ByOp {
			if os.Count != counts[os.Op] || i > 0 && got.ByOp[i-1].Op >= os.Op {
				t.Logf("ByOp[%d] = op %d count %d, want count %d in op order", i, os.Op, os.Count, counts[os.Op])
				return false
			}
		}
		if len(got.ByOp) != len(counts) {
			t.Logf("%d ByOp rows for %d distinct ops", len(got.ByOp), len(counts))
			return false
		}
		return reflect.DeepEqual(Analyze(&l), got) && reflect.DeepEqual(analyzeRecords(bare), got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSummarizerRetirementBoundsHeap is the before/after memory assertion
// for session retirement: a single held stream handle drives thousands of
// sessions through two Summarizers — one the retiring way (held handle, the
// DES path), one through the non-retiring locked Emit path — and the
// retiring sink's heap growth must come in far below the non-retiring one,
// because only one session's file map is ever live.
func TestSummarizerRetirementBoundsHeap(t *testing.T) {
	const sessions = 4000
	const filesPerSession = 16

	feed := func(emit func(*Record)) {
		var rec Record
		for s := 0; s < sessions; s++ {
			for f := 0; f < filesPerSession; f++ {
				rec = Record{
					Session: s, User: 0, Op: OpRead,
					Path:  "/u0/f" + strconv.Itoa(f),
					Bytes: 1024, FileSize: 4096,
					Start: float64(s), Elapsed: 10,
				}
				emit(&rec)
			}
		}
	}
	grow := func(run func()) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		run()
		runtime.GC()
		runtime.ReadMemStats(&after)
		if after.HeapAlloc < before.HeapAlloc {
			return 0
		}
		return after.HeapAlloc - before.HeapAlloc
	}

	retiring := NewSummarizer()
	retainAll := NewSummarizer()
	retiringGrowth := grow(func() { feed(retiring.Stream(0).Emit) })
	retainGrowth := grow(func() { feed(retainAll.Emit) })

	// The held handle must have retired every completed session: only the
	// stream's in-flight (last) session may hold a live accumulator.
	if live := len(retiring.acc.sessions); live != 1 {
		t.Errorf("live session accumulators = %d, want 1", live)
	}
	if live := len(retainAll.acc.sessions); live != sessions {
		t.Errorf("non-retiring live accumulators = %d, want %d", live, sessions)
	}
	// Heap: the non-retiring sink keeps a file map per session; the
	// retiring sink keeps one. Generous factor-2 bound to stay robust
	// against allocator noise.
	if retiringGrowth > retainGrowth/2 {
		t.Errorf("retiring heap growth %d B not below half of non-retiring %d B", retiringGrowth, retainGrowth)
	}

	// And the reductions agree exactly.
	if !reflect.DeepEqual(retiring.Finish(), retainAll.Finish()) {
		t.Error("retiring and non-retiring analyses diverge")
	}
}

// TestSummarizerRecyclesRetiredSessions pins accumulator recycling. On one
// held Stream handle, once warm-up sessions have grown an accumulator to 16
// files, folding another session over at most 16 files allocates nothing:
// it reuses the retired session's slot table or files map, and its file
// slab. After Finish the analyzer holds no accumulators and no free list.
func TestSummarizerRecyclesRetiredSessions(t *testing.T) {
	for _, slotted := range []bool{false, true} {
		t.Run(fmt.Sprintf("slotted=%v", slotted), func(t *testing.T) { recycles(t, slotted) })
	}
}

func recycles(t *testing.T, slotted bool) {
	ops := []Op{OpOpen, OpRead, OpWrite, OpClose}
	recs := make([]Record, 4*16)
	for i := range recs {
		recs[i] = Record{User: 0, Op: ops[i%4], Path: "/u0/f" + strconv.Itoa(i/4), FileSize: 8192, Elapsed: float64(1 + i%7)}
		if recs[i].Op.IsData() {
			recs[i].Bytes = 1024
		}
		if slotted {
			recs[i].Slot = int32(i/4 + 1)
		}
	}
	s := NewSummarizer()
	h := s.Stream(0)
	session := 0
	fold := func(files int) {
		for i := range recs[:4*files] {
			recs[i].Session = session
			h.Emit(&recs[i])
		}
		session++
	}
	for i := 0; i < 8; i++ {
		fold(16)
	}
	// The rows are the output and grow with the session count; size them
	// up front so only the accumulators are measured.
	s.acc.a.Sessions = slices.Grow(s.acc.a.Sessions, 256)
	if allocs := testing.AllocsPerRun(100, func() { fold(1 + session%16) }); allocs != 0 {
		t.Errorf("a session over at most 16 files allocates %v times, want 0", allocs)
	}
	a := s.Finish()
	if s.acc.sessions != nil || s.acc.free != nil {
		t.Errorf("finished analyzer holds %d sessions and %d free accumulators, want none", len(s.acc.sessions), len(s.acc.free))
	}
	if len(a.Sessions) != session {
		t.Errorf("sessions = %d, want %d", len(a.Sessions), session)
	}
}

// BenchmarkSummarizerFold times one record folded through a Summarizer
// stream handle. Sessions of 256 records cycle open/read/write/close over
// 16 files and follow one another on the handle, so every 256th record
// retires a session and the next one reuses its accumulators. Sixty-four
// sessions are folded and their garbage collected before the timer starts,
// so even a short fixed-count run such as 1000x times the steady state
// rather than the first session's map growth.
func BenchmarkSummarizerFold(b *testing.B) {
	ops := []Op{OpOpen, OpRead, OpWrite, OpClose}
	recs := make([]Record, 256)
	for i := range recs {
		recs[i] = Record{User: 0, UserType: "heavy", Op: ops[i%4], Path: "/u0/f" + strconv.Itoa(i/4%16), FileSize: 8192, Elapsed: float64(1 + i%7)}
		if recs[i].Op.IsData() {
			recs[i].Bytes = 1024
		}
	}
	h := NewSummarizer().Stream(0)
	i := 0
	for ; i < 64*len(recs); i++ {
		r := &recs[i%len(recs)]
		r.Session = i / len(recs)
		h.Emit(r)
	}
	runtime.GC()
	b.ReportAllocs()
	for b.Loop() {
		r := &recs[i%len(recs)]
		r.Session = i / len(recs)
		h.Emit(r)
		i++
	}
}
