package dist

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"uswg/internal/rng"
)

func almost(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (±%v)", what, got, want, tol)
	}
}

func sampleMean(d Distribution, seed uint64, n int) float64 {
	r := rng.New(seed)
	var sum float64
	for i := 0; i < n; i++ {
		sum += d.Sample(r)
	}
	return sum / float64(n)
}

func TestExponentialAnalytic(t *testing.T) {
	e, err := NewExponential(100)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, e.Mean(), 100, 1e-12, "mean")
	almost(t, e.CDF(100), 1-math.Exp(-1), 1e-12, "CDF(theta)")
	almost(t, e.PDF(0), 0.01, 1e-12, "PDF(0)")
	if e.CDF(-1) != 0 || e.PDF(-1) != 0 {
		t.Error("negative support should carry no mass")
	}
	almost(t, sampleMean(e, 1, 200000), 100, 1.5, "sample mean")
}

func TestExponentialRejectsBadMean(t *testing.T) {
	for _, m := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewExponential(m); err == nil {
			t.Errorf("NewExponential(%v) accepted", m)
		}
	}
}

func TestUniformAnalytic(t *testing.T) {
	u, err := NewUniform(10, 30)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, u.Mean(), 20, 1e-12, "mean")
	almost(t, u.CDF(15), 0.25, 1e-12, "CDF(15)")
	almost(t, u.PDF(20), 0.05, 1e-12, "PDF(20)")
	r := rng.New(2)
	for i := 0; i < 1000; i++ {
		if x := u.Sample(r); x < 10 || x > 30 {
			t.Fatalf("sample %v outside [10, 30]", x)
		}
	}
	if _, err := NewUniform(5, 5); err == nil {
		t.Error("empty range accepted")
	}
	if _, err := NewUniform(math.Inf(-1), 0); err == nil {
		t.Error("infinite lower bound accepted")
	}
}

func TestConstant(t *testing.T) {
	c := Constant{V: 7}
	if c.Sample(nil) != 7 || c.Mean() != 7 {
		t.Error("constant should always be 7")
	}
	if c.CDF(6.9) != 0 || c.CDF(7) != 1 {
		t.Error("constant CDF should step at 7")
	}
}

func TestPhaseTypeExpMoments(t *testing.T) {
	p, err := NewPhaseTypeExp([]ExpStage{
		{W: 0.6, Theta: 10},
		{W: 0.4, Theta: 30, Offset: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 0.6*10 + 0.4*(50+30)
	almost(t, p.Mean(), want, 1e-12, "mean")
	almost(t, sampleMean(p, 3, 200000), want, 0.5, "sample mean")
	// CDF must be monotone from 0 to 1.
	prev := 0.0
	for x := 0.0; x < 500; x += 5 {
		c := p.CDF(x)
		if c < prev-1e-12 || c < 0 || c > 1 {
			t.Fatalf("CDF(%v) = %v not monotone in [0,1]", x, c)
		}
		prev = c
	}
	if prev < 0.999 {
		t.Errorf("CDF(500) = %v, want ~1", prev)
	}
}

func TestPhaseTypeExpRejectsBadStages(t *testing.T) {
	bad := [][]ExpStage{
		nil,
		{{W: 0.4, Theta: 1}},                  // weights don't sum to 1
		{{W: 1, Theta: 0}},                    // zero mean
		{{W: 1, Theta: 5, Offset: -1}},        // negative offset
		{{W: -1, Theta: 5}, {W: 2, Theta: 5}}, // negative weight
	}
	for i, stages := range bad {
		if _, err := NewPhaseTypeExp(stages); err == nil {
			t.Errorf("bad stages %d accepted", i)
		}
	}
}

func TestMultiStageGammaMoments(t *testing.T) {
	g, err := NewMultiStageGamma([]GammaStage{
		{W: 0.7, Alpha: 2, Theta: 8},
		{W: 0.3, Alpha: 1.5, Theta: 12, Offset: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 0.7*2*8 + 0.3*(20+1.5*12)
	almost(t, g.Mean(), want, 1e-12, "mean")
	almost(t, sampleMean(g, 5, 200000), want, 0.5, "sample mean")
}

func TestGammaCDFMatchesExponential(t *testing.T) {
	// A gamma with alpha=1 is an exponential: P(1, x/theta) = 1 - e^(-x/theta).
	g, err := NewMultiStageGamma([]GammaStage{{W: 1, Alpha: 1, Theta: 50}})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{1, 10, 50, 200, 1000} {
		almost(t, g.CDF(x), 1-math.Exp(-x/50), 1e-9, "gamma(1) CDF")
	}
}

func TestGammaSamplingSmallAlpha(t *testing.T) {
	// The alpha<1 boost path: mean must still be alpha*theta.
	g, err := NewMultiStageGamma([]GammaStage{{W: 1, Alpha: 0.4, Theta: 10}})
	if err != nil {
		t.Fatal(err)
	}
	almost(t, sampleMean(g, 7, 200000), 4, 0.2, "alpha=0.4 sample mean")
}

func TestRegIncGammaKnownValues(t *testing.T) {
	// P(a, a) tends to ~0.5 for large a; P(1, x) = 1 - e^-x exactly.
	almost(t, regIncGamma(1, 1), 1-math.Exp(-1), 1e-12, "P(1,1)")
	almost(t, regIncGamma(5, 5), 0.5595, 1e-3, "P(5,5)")
	if regIncGamma(3, 0) != 0 {
		t.Error("P(a, 0) must be 0")
	}
	almost(t, regIncGamma(0.5, 50), 1, 1e-9, "P(0.5, 50)")
}

func TestCDFTableInverseRoundTrip(t *testing.T) {
	tab, err := NewCDFTable([]float64{0, 10, 20, 40}, []float64{0, 0.25, 0.75, 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1} {
		x := tab.InverseCDF(u)
		almost(t, tab.CDF(x), u, 1e-12, "CDF(InverseCDF(u))")
	}
	almost(t, tab.Mean(), 0.25*5+0.5*15+0.25*30, 1e-12, "table mean")
}

func TestCDFTableSampleZeroAllocs(t *testing.T) {
	tab, err := NewCDFTable([]float64{0, 1, 2, 4, 8, 16}, []float64{0, 0.1, 0.3, 0.6, 0.9, 1})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(9)
	if allocs := testing.AllocsPerRun(1000, func() { _ = tab.Sample(r) }); allocs != 0 {
		t.Errorf("Sample allocates %v per op, want 0", allocs)
	}
}

func TestCDFTableFlatSegments(t *testing.T) {
	// A flat CDF segment (no mass between 10 and 20) must not divide by
	// zero and must never return values inside the gap.
	tab, err := NewCDFTable([]float64{0, 10, 20, 30}, []float64{0, 0.5, 0.5, 1})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(11)
	for i := 0; i < 2000; i++ {
		x := tab.Sample(r)
		if x > 10+1e-9 && x < 20-1e-9 {
			t.Fatalf("sample %v landed in the zero-mass gap", x)
		}
	}
}

func TestCDFTableRejectsBadInput(t *testing.T) {
	cases := []struct{ xs, ps []float64 }{
		{[]float64{0}, []float64{0}},
		{[]float64{0, 1}, []float64{0}},
		{[]float64{1, 0}, []float64{0, 1}},
		{[]float64{0, 1}, []float64{1, 0}},
		{[]float64{0, 1}, []float64{0, 0}},
		{[]float64{0, 1}, []float64{0, 2}},
		{[]float64{0, math.NaN()}, []float64{0, 1}},
	}
	for i, c := range cases {
		if _, err := NewCDFTable(c.xs, c.ps); err == nil {
			t.Errorf("bad table %d accepted", i)
		}
	}
}

// TestCDFTableClampsEveryPointAboveOne: NewCDFTable accepts points up to
// 1+1e-9 as rounding, so every such point must clamp to 1, not only the
// last; otherwise Ps decreases and CDF returns more than 1.
func TestCDFTableClampsEveryPointAboveOne(t *testing.T) {
	tab, err := NewCDFTable([]float64{0, 1, 2}, []float64{0, 1 + 5e-10, 1 + 5e-10})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range tab.Ps {
		if p > 1 || i > 0 && p < tab.Ps[i-1] {
			t.Fatalf("Ps = %v, want non-decreasing in [0, 1]", tab.Ps)
		}
	}
	if got := tab.CDF(1.5); got != 1 {
		t.Errorf("CDF(1.5) = %v, want 1", got)
	}
	almost(t, tab.Mean(), 0.5, 1e-15, "clamped table mean")
}

// randomTable builds a valid CDF table of 2 to about 5,000 points, in
// shapes that stress the guide table: an atom at Ps[0] > 0, a tail with
// Ps[last] < 1, flat segments, and most points piled into one bucket.
func randomTable(r *rand.Rand) (*CDFTable, error) {
	n := 2 + r.Intn(5000)
	top := 1.0
	if r.Intn(3) == 0 {
		top = 0.25 + 0.75*r.Float64() // tail mass beyond the last point
	}
	lo, width := 0.0, top // the band the interior points fall in
	if r.Intn(3) == 0 {
		lo = r.Float64() * top
		width = math.Min(top-lo, r.Float64()/float64(n)) // narrower than a bucket
	}
	ps := make([]float64, n)
	for i := range ps {
		ps[i] = lo + r.Float64()*width
		if i > 0 && r.Intn(8) == 0 {
			ps[i] = ps[i-1] // a flat segment once sorted
		}
	}
	sort.Float64s(ps)
	if r.Intn(2) == 0 {
		ps[0] = 0 // otherwise Ps[0] > 0 is an atom at Xs[0]
	}
	ps[n-1] = top
	xs := make([]float64, n)
	xs[0] = r.NormFloat64() * 100
	for i := 1; i < n; i++ {
		xs[i] = xs[i-1] + 0.01 + r.ExpFloat64()
	}
	return NewCDFTable(xs, ps)
}

// searchQuantile is the guide table's oracle: the endpoint clamps of
// InverseCDF, and inside them the interpolation at the index the standard
// library's binary search returns.
func searchQuantile(t *CDFTable, u float64) float64 {
	ps, xs := t.Ps, t.Xs
	last := len(ps) - 1
	if u <= ps[0] {
		return xs[0]
	}
	if u >= ps[last] {
		return xs[last]
	}
	i := sort.SearchFloat64s(ps, u)
	return xs[i-1] + (u-ps[i-1])/(ps[i]-ps[i-1])*(xs[i]-xs[i-1])
}

// TestQuickInverseCDFMatchesSearch pins the guide table's exactness: on
// random tables, InverseCDF equals the binary-search quantile bit for bit
// at random draws, at every table point and its float neighbours, and at
// every bucket edge k/K and its neighbours.
func TestQuickInverseCDFMatchesSearch(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tab, err := randomTable(r)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		us := []float64{0, 1}
		for i := 0; i < 256; i++ {
			us = append(us, r.Float64())
		}
		for _, p := range tab.Ps {
			us = append(us, p, math.Nextafter(p, -1), math.Nextafter(p, 2))
		}
		k := len(tab.guide) - 1
		for b := 0; b <= k; b++ {
			e := float64(b) / float64(k)
			us = append(us, e, math.Nextafter(e, -1), math.Nextafter(e, 2))
		}
		for _, u := range us {
			if got, want := tab.InverseCDF(u), searchQuantile(tab, u); math.Float64bits(got) != math.Float64bits(want) {
				t.Logf("seed %d, %d points: InverseCDF(%v) = %v, search gives %v", seed, len(tab.Ps), u, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFromPDFTableNormalizes(t *testing.T) {
	tab, err := FromPDFTable([]float64{0, 1, 2}, []float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	almost(t, tab.Ps[len(tab.Ps)-1], 1, 1e-12, "total mass")
	almost(t, tab.Mean(), 1, 1e-9, "uniform-pdf mean")
	if _, err := FromPDFTable([]float64{0, 1}, []float64{-1, 2}); err == nil {
		t.Error("negative density accepted")
	}
	if _, err := FromPDFTable([]float64{0, 1, 2}, []float64{0, 0, 0}); err == nil {
		t.Error("massless PDF accepted")
	}
}

func TestTableForMatchesAnalyticCDF(t *testing.T) {
	e, _ := NewExponential(100)
	tab, err := TableFor(e, 0, 800, 512)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []float64{0.1, 0.5, 0.9} {
		want := -100 * math.Log(1-u)
		got := tab.InverseCDF(u)
		if math.Abs(got-want)/want > 0.02 {
			t.Errorf("quantile %v: table %v, analytic %v", u, got, want)
		}
	}
}

// noCDF hides a distribution's Cumulative method so TableFor and
// NewTruncated take their sampling-only fallback paths.
type noCDF struct{ d Distribution }

func (n noCDF) Sample(r *rand.Rand) float64 { return n.d.Sample(r) }
func (n noCDF) Mean() float64               { return n.d.Mean() }

func TestTableForEmpiricalFallback(t *testing.T) {
	u, _ := NewUniform(10, 20)
	tab, err := TableFor(noCDF{u}, 0, 30, 256)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, tab.Mean(), 15, 0.5, "empirical table mean")
	r := rng.New(29)
	for i := 0; i < 1000; i++ {
		if x := tab.Sample(r); x < 9 || x > 21 {
			t.Fatalf("empirical table sample %v far outside [10, 20]", x)
		}
	}
}

func TestTruncatedSamplerOnlyFallback(t *testing.T) {
	u, _ := NewUniform(0, 100)
	tr, err := NewTruncated(noCDF{u}, 25, 75)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, tr.Mean(), 50, 2, "sampler-only truncated mean")
	r := rng.New(31)
	for i := 0; i < 1000; i++ {
		if x := tr.Sample(r); x < 25 || x > 75 {
			t.Fatalf("sample %v escaped [25, 75]", x)
		}
	}
}

func TestTruncatedAnalyticMean(t *testing.T) {
	e, _ := NewExponential(100)
	tr, err := NewTruncated(e, 50, 150)
	if err != nil {
		t.Fatal(err)
	}
	// E[X | 50 < X < 150] for exp(100).
	a, b, th := 50.0, 150.0, 100.0
	ea, eb := math.Exp(-a/th), math.Exp(-b/th)
	want := ((a+th)*ea - (b+th)*eb) / (ea - eb)
	almost(t, tr.Mean(), want, 0.5, "truncated mean")
	almost(t, tr.CDF(50), 0, 1e-12, "CDF at lo")
	almost(t, tr.CDF(150), 1, 1e-12, "CDF at hi")
	r := rng.New(13)
	for i := 0; i < 2000; i++ {
		if x := tr.Sample(r); x < 50 || x > 150 {
			t.Fatalf("truncated sample %v escaped", x)
		}
	}
}

func TestTruncatedRejectsMasslessWindow(t *testing.T) {
	e, _ := NewExponential(1)
	if _, err := NewTruncated(e, 1000, 1001); err == nil {
		t.Error("window with ~0 mass accepted")
	}
	if _, err := NewTruncated(e, 5, 2); err == nil {
		t.Error("empty window accepted")
	}
}

func TestFitExponentialRecovers(t *testing.T) {
	e, _ := NewExponential(42)
	r := rng.New(17)
	samples := make([]float64, 100000)
	for i := range samples {
		samples[i] = e.Sample(r)
	}
	f, err := FitExponential(samples)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, f.Mean(), 42, 1, "fitted mean")
	if _, err := FitExponential(nil); err == nil {
		t.Error("empty fit accepted")
	}
	if _, err := FitExponential([]float64{-3, -4}); err == nil {
		t.Error("negative-mean fit accepted")
	}
}

func TestFitPreservesSampleMean(t *testing.T) {
	// The quantile-group fitters match the sample mean by construction.
	p, _ := NewPhaseTypeExp([]ExpStage{
		{W: 0.5, Theta: 20},
		{W: 0.5, Theta: 10, Offset: 100},
	})
	r := rng.New(19)
	samples := make([]float64, 10000)
	var sum float64
	for i := range samples {
		samples[i] = p.Sample(r)
		sum += samples[i]
	}
	mean := sum / float64(len(samples))
	pf, err := FitPhaseTypeExp(samples, 2)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, pf.Mean(), mean, 1e-6, "phase-exp fitted mean")
	gf, err := FitMultiStageGamma(samples, 3)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, gf.Mean(), mean, 1e-6, "gamma fitted mean")
}

func TestFitDegenerateGroups(t *testing.T) {
	// One sample, many requested stages: degrade, don't fail.
	p, err := FitPhaseTypeExp([]float64{5}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Stages()) != 1 {
		t.Errorf("1 sample fitted %d stages", len(p.Stages()))
	}
	// Constant samples: zero variance groups.
	g, err := FitMultiStageGamma([]float64{3, 3, 3, 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, g.Mean(), 3, 1e-6, "constant-sample gamma mean")
}

func TestSamplingIsDeterministic(t *testing.T) {
	mk := func() []Distribution {
		e, _ := NewExponential(10)
		u, _ := NewUniform(0, 5)
		p, _ := NewPhaseTypeExp([]ExpStage{{W: 1, Theta: 3}})
		g, _ := NewMultiStageGamma([]GammaStage{{W: 1, Alpha: 2.5, Theta: 4}})
		tab, _ := NewCDFTable([]float64{0, 1, 2}, []float64{0, 0.5, 1})
		tr, _ := NewTruncated(e, 1, 30)
		return []Distribution{e, u, p, g, tab, tr, Constant{V: 2}}
	}
	a, b := mk(), mk()
	ra, rb := rng.New(23), rng.New(23)
	for i := range a {
		for k := 0; k < 100; k++ {
			if xa, xb := a[i].Sample(ra), b[i].Sample(rb); xa != xb {
				t.Fatalf("distribution %d diverged at draw %d: %v != %v", i, k, xa, xb)
			}
		}
	}
}
