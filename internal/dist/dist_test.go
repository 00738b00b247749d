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
	lower := func(a, x float64) float64 {
		p, _ := RegIncGamma(a, x)
		return p
	}
	// P(a, a) tends to ~0.5 for large a; P(1, x) = 1 - e^-x exactly.
	almost(t, lower(1, 1), 1-math.Exp(-1), 1e-12, "P(1,1)")
	almost(t, lower(5, 5), 0.5595, 1e-3, "P(5,5)")
	if lower(3, 0) != 0 {
		t.Error("P(a, 0) must be 0")
	}
	almost(t, lower(0.5, 50), 1, 1e-9, "P(0.5, 50)")
}

// TestRegIncGammaPinned pins the bits of P and Q on both sides of the
// series/fraction switch at x = a+1, at x = 0 and outside the domain. P
// was recorded from the gamma mixture's CDF routine and Q from the
// chi-square survival function's, when each package had its own copy of
// the Numerical Recipes code.
func TestRegIncGammaPinned(t *testing.T) {
	cases := []struct {
		a, x float64
		p, q uint64
	}{
		{0.05, 0.02, 0x3feb0167368835c7, 0x3fc3fa6325df28e4},
		{0.05, 2, 0x3fefea62932b696e, 0x3f659d6cd496920f},
		{0.5, 0, 0x0000000000000000, 0x3ff0000000000000},
		{0.5, 0.01, 0x3fbcca5ea24fb332, 0x3fec66b42bb6099a},
		{0.5, 1.4, 0x3fecfbc96b9dfb02, 0x3fb821b4a31027f0},
		{0.5, 1.5, 0x3fed55e5a70068f1, 0x3fb550d2c7fcb878},
		{0.5, 3, 0x3fef8ace65ff5640, 0x3f8d4c66802a7011},
		{0.5, 50, 0x3ff0000000000000, 0x3b326c75e84fb0fa},
		{1, 0.5, 0x3fd92e9a0720d3eb, 0x3fe368b2fc6f960a},
		{1, 1.99, 0x3feba030ea465b79, 0x3fc17f3c56e6921c},
		{1, 2, 0x3febab5557101f8d, 0x3fc152aaa3bf81cc},
		{1, 10, 0x3fefffa0ca192a6e, 0x3f07cd79b5647c9c},
		{2.5, 0.2, 0x3f732146c4f9aa92, 0x3fefd9bd72760cab},
		{2.5, 3.4, 0x3fe8732470ddd47c, 0x3fce336e3c88ae10},
		{2.5, 3.5, 0x3fe8f083bca77055, 0x3fcc3df10d623eac},
		{2.5, 8, 0x3fefc7eeefca9e17, 0x3f7c08881ab0f4bd},
		{5, 1, 0x3f6dfb414dd1647b, 0x3fefe204beb22e9c},
		{5, 5, 0x3fe1e77aa0513197, 0x3fdc310abf5d9cd2},
		{5, 5.99, 0x3fe6d5d56b3eced7, 0x3fd2545529826252},
		{5, 6, 0x3fe6e0d130b41766, 0x3fd23e5d9e97d134},
		{5, 12, 0x3fefc1bcd352d0d9, 0x3f7f219656979381},
		{5, 40, 0x3fefffffffffee56, 0x3d61aa08415894d3},
		{10, 3, 0x3f52102b9da301ce, 0x3feff6f7ea312e7f},
		{10, 10.99, 0x3fe511a369ab93a5, 0x3fd5dcb92ca8d8b6},
		{10, 11, 0x3fe51a896cd570f0, 0x3fd5caed26551e1f},
		{10, 25, 0x3feffe2f87a29edf, 0x3f2d0785d6120fa9},
		{17.5, 100, 0x3ff0000000000000, 0x3ae4147fce18e617},
		{20, 10, 0x3f6c4c47ba189e26, 0x3fefe3b3b845e762},
		{20, 20.999, 0x3fe3b3715cc5525a, 0x3fd8991d46755b4c},
		{20, 21, 0x3fe3b41e8f01bd4e, 0x3fd897c2e1fc8565},
		{20, 60, 0x3fefffffffa8b32d, 0x3e05d334da81a877},
		{3, -1, 0x0000000000000000, 0x3ff0000000000000},
		{0, 1, 0, 0x3ff0000000000000},
		{-1, 2, 0, 0x3ff0000000000000},
	}
	for _, c := range cases {
		p, q := RegIncGamma(c.a, c.x)
		if math.Float64bits(p) != c.p || math.Float64bits(q) != c.q {
			t.Errorf("RegIncGamma(%v, %v) = (%#016x, %#016x), want (%#016x, %#016x)",
				c.a, c.x, math.Float64bits(p), math.Float64bits(q), c.p, c.q)
		}
	}
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
