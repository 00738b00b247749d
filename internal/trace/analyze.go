package trace

import (
	"math/big"
	"sort"

	"uswg/internal/stats"
)

// SessionUsage is the Usage Analyzer's reduction of one login session, the
// unit the thesis's Figures 5.3-5.5 histogram over 600 sessions.
type SessionUsage struct {
	// Session is the session index.
	Session int
	// User is the simulated user index.
	User int
	// UserType names the user's type.
	UserType string
	// Ops is the number of operations executed.
	Ops int
	// DataOps is the number of read/write operations.
	DataOps int
	// Bytes is the total bytes transferred by data operations.
	Bytes int64
	// FilesReferenced is the number of distinct files touched.
	FilesReferenced int
	// AvgFileSize is the mean size of distinct files referenced, bytes.
	AvgFileSize float64
	// AccessPerByte is the mean over referenced files of (bytes
	// transferred on the file / file size): how many times each byte of a
	// file was accessed on average. [DI86] reports most files are equally
	// accessed or accessed at most once, so values cluster near 0-1 with a
	// tail from re-read files.
	AccessPerByte float64
	// ResponseTotal is the summed response time of all operations, µs.
	ResponseTotal float64
	// ResponsePerByte is total data-op response time / bytes transferred,
	// µs per byte (the y-axis of Figures 5.6-5.12).
	ResponsePerByte float64
}

// OpSummary aggregates access size and response time for one system call
// type, as in Table 5.3.
type OpSummary struct {
	Op       Op
	Count    int64
	Size     stats.Summary // bytes per call (data ops only)
	Response stats.Summary // µs per call
}

// CategoryUsage is the Usage Analyzer's reduction of one file category over
// every session, the observed columns of Table 5.2. A file belongs to the
// category of the first record that references it in a session.
type CategoryUsage struct {
	// Category is the file category index in the spec.
	Category int
	// Sessions counts the sessions that referenced a file of the category.
	Sessions int
	// Files counts (session, file) pairs: a file referenced in two sessions
	// counts twice, as the per-session FilesReferenced does.
	Files int
	// AccessPerByte is the mean of bytes transferred / file size over the
	// pairs that moved bytes on a file of known size.
	AccessPerByte float64
}

// Analysis is the Usage Analyzer's full reduction of a log.
type Analysis struct {
	// Sessions holds one entry per session, ordered by session index.
	Sessions []SessionUsage
	// ByOp summarizes each op type present in the log, ordered by op.
	ByOp []OpSummary
	// Categories holds one entry per category referenced, ordered by
	// category. A file whose category is negative is uncategorized and in
	// no entry.
	Categories []CategoryUsage
	// AccessSize summarizes bytes per data op across the whole log.
	AccessSize stats.Summary
	// Response summarizes response time per data op across the whole log.
	Response stats.Summary
	// Ops counts all operations in the log.
	Ops int
	// Errors counts failed operations.
	Errors int
}

type fileAgg struct {
	bytes int64
	size  int64
	cat   int // the category of the file's first record
}

type sessionAgg struct {
	usage SessionUsage
	// slots maps a record's Slot to its file's accumulator index in order,
	// plus one; 0 marks a slot not yet referenced. files maps a slot-less
	// record's path to its accumulator's index in order: records decoded
	// from JSONL or built by hand carry no slot.
	slots []int32
	files map[string]int
	// order holds the per-file accumulators by first reference, so the
	// per-file float sums in finish accumulate in a deterministic order
	// (map iteration would perturb the last ULP between identical runs).
	order    []fileAgg
	dataResp float64
}

// file returns the accumulator of r's file, starting one at its first
// reference. A record with a slot indexes slots; one without hashes its
// path. Either way a session's files enter order in the same sequence.
func (sa *sessionAgg) file(r *Record) *fileAgg {
	if s := int(r.Slot); s > 0 {
		if s >= len(sa.slots) {
			sa.slots = append(sa.slots, make([]int32, s+1-len(sa.slots))...)
		}
		if sa.slots[s] == 0 {
			sa.order = append(sa.order, fileAgg{cat: r.Category})
			sa.slots[s] = int32(len(sa.order))
		}
		return &sa.order[sa.slots[s]-1]
	}
	i, ok := sa.files[r.Path]
	if !ok {
		if sa.files == nil {
			sa.files = make(map[string]int)
		}
		i = len(sa.order)
		sa.files[r.Path] = i
		sa.order = append(sa.order, fileAgg{cat: r.Category})
	}
	return &sa.order[i]
}

// catAgg accumulates one category's files over the sessions finished so
// far. The access-per-byte terms sum exactly (see addTerm), so the row does
// not depend on the order sessions finish in: the Summarizer retires them
// in emission order, Analyze finishes them in map order.
type catAgg struct {
	usage CategoryUsage
	// seen is the analyzer's gen when a session last counted here, so a
	// session counts once however many of its files the category holds.
	seen       int
	sum, spare *big.Float
	terms      int
}

// termPrec holds any sum of access-per-byte terms exactly. A term is a
// float64 quotient of two positive int64s, so it lies in [2^-63, 2^63] and
// has no bit below 2^-115; fewer than 2^63 terms sum below 2^126. Every
// bit of every partial sum fits in 241 bits, so no addition rounds.
const termPrec = 256

// addTerm adds x to the exact sum. It adds into the spare and swaps: an
// add in place makes big.Float allocate a shifted temporary.
func (c *catAgg) addTerm(x float64, t *big.Float) {
	c.spare.Add(c.sum, t.SetFloat64(x))
	c.sum, c.spare = c.spare, c.sum
	c.terms++
}

// Analyze reduces a log to per-session, per-op and per-category aggregates,
// iterating the log in place (no record copy).
func Analyze(l *Log) *Analysis {
	acc := newAnalyzer()
	l.Each(acc.add)
	return acc.finish()
}

// analyzer accumulates records one at a time, so both in-place log
// iteration (Each) and the Summarizer's streams share the reduction.
type analyzer struct {
	sessions map[int]*sessionAgg
	// free holds retired accumulators, their slot table, files map and
	// order slab emptied but keeping their capacity, for the next session
	// to reuse.
	free []*sessionAgg
	// byOp holds the known ops' summaries, indexed by Op; a summary with
	// Count 0 has not been seen. otherOps holds any other Op value, which
	// only Go code can build (DecodeJSONL rejects unknown names and
	// records with no op).
	byOp     [OpMkdir + 1]OpSummary
	otherOps map[Op]*OpSummary
	// cats holds each category's accumulator, keyed by value: a category
	// read from JSONL may be any int. gen numbers the sessions finished.
	cats map[int]*catAgg
	gen  int
	term big.Float
	a    *Analysis
}

func newAnalyzer() *analyzer {
	return &analyzer{
		sessions: make(map[int]*sessionAgg),
		cats:     make(map[int]*catAgg),
		a:        &Analysis{},
	}
}

// add folds one record into its session's accumulator, found by id.
func (acc *analyzer) add(r *Record) { acc.fold(acc.session(r), r) }

// session returns the accumulator of r's session, starting one if needed
// on a retired accumulator when the free list has one.
func (acc *analyzer) session(r *Record) *sessionAgg {
	sa, ok := acc.sessions[r.Session]
	if !ok {
		if n := len(acc.free); n > 0 {
			sa = acc.free[n-1]
			acc.free = acc.free[:n-1]
		} else {
			sa = &sessionAgg{}
		}
		sa.usage = SessionUsage{Session: r.Session, User: r.User, UserType: r.UserType}
		acc.sessions[r.Session] = sa
	}
	return sa
}

// opSummary returns op's summary.
func (acc *analyzer) opSummary(op Op) *OpSummary {
	if op >= 0 && int(op) < len(acc.byOp) {
		return &acc.byOp[op]
	}
	os, ok := acc.otherOps[op]
	if !ok {
		if acc.otherOps == nil {
			acc.otherOps = make(map[Op]*OpSummary)
		}
		os = &OpSummary{Op: op}
		acc.otherOps[op] = os
	}
	return os
}

// fold adds r to sa, the accumulator of r's session, and to the per-op and
// global totals.
func (acc *analyzer) fold(sa *sessionAgg, r *Record) {
	a := acc.a
	sa.usage.Ops++
	sa.usage.ResponseTotal += r.Elapsed
	a.Ops++
	if r.Err != "" {
		a.Errors++
	}

	os := acc.opSummary(r.Op)
	os.Count++
	os.Response.Add(r.Elapsed)

	if r.Path != "" {
		fa := sa.file(r)
		if r.FileSize > fa.size {
			fa.size = r.FileSize
		}
		fa.bytes += r.Bytes
	}

	if r.Op.IsData() {
		sa.usage.DataOps++
		sa.usage.Bytes += r.Bytes
		sa.dataResp += r.Elapsed
		os.Size.Add(float64(r.Bytes))
		a.AccessSize.Add(float64(r.Bytes))
		a.Response.Add(r.Elapsed)
	}
}

// finishSession folds one session's accumulator into its final usage row,
// and its files into their categories. The per-file float sums accumulate
// in first-reference order (sa.order), so the result is identical whether
// the session is folded at Finish or retired early — the same operations
// in the same sequence.
func (acc *analyzer) finishSession(sa *sessionAgg) SessionUsage {
	u := sa.usage
	u.FilesReferenced = len(sa.order)
	acc.gen++
	var sizeSum float64
	var apbSum float64
	var apbN int
	for _, fa := range sa.order {
		sizeSum += float64(fa.size)
		if fa.size > 0 {
			apbSum += float64(fa.bytes) / float64(fa.size)
			apbN++
		}
		if fa.cat >= 0 {
			acc.foldFile(fa)
		}
	}
	if u.FilesReferenced > 0 {
		u.AvgFileSize = sizeSum / float64(u.FilesReferenced)
	}
	if apbN > 0 {
		u.AccessPerByte = apbSum / float64(apbN)
	}
	if u.Bytes > 0 {
		u.ResponsePerByte = sa.dataResp / float64(u.Bytes)
	}
	return u
}

// foldFile adds one of the finishing session's files to its category.
func (acc *analyzer) foldFile(fa fileAgg) {
	c, ok := acc.cats[fa.cat]
	if !ok {
		c = &catAgg{
			usage: CategoryUsage{Category: fa.cat},
			sum:   new(big.Float).SetPrec(termPrec),
			spare: new(big.Float).SetPrec(termPrec),
		}
		acc.cats[fa.cat] = c
	}
	if c.seen != acc.gen {
		c.seen = acc.gen
		c.usage.Sessions++
	}
	c.usage.Files++
	if fa.bytes > 0 && fa.size > 0 {
		c.addTerm(float64(fa.bytes)/float64(fa.size), &acc.term)
	}
}

// retire finalizes one session early and puts its accumulator, emptied, on
// the free list for the next session to reuse. Callers must guarantee no
// further records for the session will arrive: a retired session that
// reappears would start a fresh accumulator and duplicate the row. The
// Summarizer's per-stream handles call this when a stream moves on to its
// next session (sessions are contiguous per stream).
func (acc *analyzer) retire(session int) {
	sa, ok := acc.sessions[session]
	if !ok {
		return
	}
	acc.a.Sessions = append(acc.a.Sessions, acc.finishSession(sa))
	delete(acc.sessions, session)
	clear(sa.slots)
	clear(sa.files)
	sa.order = sa.order[:0]
	sa.dataResp = 0
	acc.free = append(acc.free, sa)
}

// finish folds the remaining per-session, per-op and per-category
// accumulators into the sorted Analysis and releases every accumulator: a
// finished analyzer holds none.
func (acc *analyzer) finish() *Analysis {
	a := acc.a
	//wlint:allow maprange append-then-sort: the slice is sorted by unique session id on the line after the loop; the category sums are exact, so the visit order cannot move them
	for _, sa := range acc.sessions {
		a.Sessions = append(a.Sessions, acc.finishSession(sa))
	}
	acc.sessions, acc.free = nil, nil
	sort.Slice(a.Sessions, func(i, j int) bool { return a.Sessions[i].Session < a.Sessions[j].Session })

	a.Categories = make([]CategoryUsage, 0, len(acc.cats))
	//wlint:allow maprange append-then-sort: the slice is sorted by unique category on the line after the loop
	for _, c := range acc.cats {
		if c.terms > 0 {
			sum, _ := c.sum.Float64()
			c.usage.AccessPerByte = sum / float64(c.terms)
		}
		a.Categories = append(a.Categories, c.usage)
	}
	acc.cats = nil
	sort.Slice(a.Categories, func(i, j int) bool { return a.Categories[i].Category < a.Categories[j].Category })

	for op, os := range acc.byOp {
		if os.Count > 0 {
			os.Op = Op(op)
			a.ByOp = append(a.ByOp, os)
		}
	}
	//wlint:allow maprange append-then-sort: the slice is sorted by unique op code on the line after the loop
	for _, os := range acc.otherOps {
		a.ByOp = append(a.ByOp, *os)
	}
	sort.Slice(a.ByOp, func(i, j int) bool { return a.ByOp[i].Op < a.ByOp[j].Op })
	return a
}

// MeanResponsePerByte returns the byte-weighted mean response time per byte
// across all sessions: total data-op response time / total bytes. This is
// the single point plotted per configuration in Figures 5.6-5.12.
func (a *Analysis) MeanResponsePerByte() float64 {
	var resp float64
	var bytes int64
	for _, s := range a.Sessions {
		resp += s.ResponsePerByte * float64(s.Bytes)
		bytes += s.Bytes
	}
	if bytes == 0 {
		return 0
	}
	return resp / float64(bytes)
}

// Counters are the run-level totals an Analysis reduces to — the per-
// scenario accounting the artifact pipeline records in its manifest, so a
// results folder states how much simulated work produced each table.
type Counters struct {
	// Sessions is the number of login sessions analyzed.
	Sessions int `json:"sessions"`
	// Ops is the number of operations executed.
	Ops int `json:"ops"`
	// Errors is the number of failed operations.
	Errors int `json:"errors"`
}

// Add accumulates another run's counters (sweep points of one scenario).
func (c *Counters) Add(o Counters) {
	c.Sessions += o.Sessions
	c.Ops += o.Ops
	c.Errors += o.Errors
}

// Counters extracts the analysis's run totals.
func (a *Analysis) Counters() Counters {
	return Counters{Sessions: len(a.Sessions), Ops: a.Ops, Errors: a.Errors}
}

// Availability is the fraction of operations that completed without error —
// the degraded-mode headline of the fault5.x resilience experiments. A log
// with no operations is vacuously available.
func (a *Analysis) Availability() float64 {
	if a.Ops == 0 {
		return 1
	}
	return 1 - float64(a.Errors)/float64(a.Ops)
}

// SessionValues extracts one per-session measure for histogramming (the
// Figures 5.3-5.5 inputs).
func (a *Analysis) SessionValues(f func(SessionUsage) float64) []float64 {
	out := make([]float64, len(a.Sessions))
	for i, s := range a.Sessions {
		out[i] = f(s)
	}
	return out
}
