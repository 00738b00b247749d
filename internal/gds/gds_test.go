package gds

import (
	"math"
	"testing"

	"uswg/internal/config"
	"uswg/internal/dist"
	"uswg/internal/rng"
)

func TestCompileExponential(t *testing.T) {
	d, err := Compile(config.Exp(1024))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Mean()-1024) > 1e-9 {
		t.Errorf("mean = %v", d.Mean())
	}
}

func TestCompileAllKinds(t *testing.T) {
	specs := []config.DistSpec{
		config.Exp(5),
		config.Const(3),
		{Kind: config.KindUniform, Lo: 1, Hi: 9},
		{Kind: config.KindPhaseExp, ExpStages: []config.ExpStageSpec{{W: 1, Theta: 4}}},
		{Kind: config.KindGamma, GammaStages: []config.GammaStageSpec{{W: 1, Alpha: 2, Theta: 3}}},
		{Kind: config.KindTableCDF, Xs: []float64{0, 1, 2}, Ps: []float64{0, 0.5, 1}},
		{Kind: config.KindTablePDF, Xs: []float64{0, 1, 2}, Ps: []float64{0.5, 1, 0.5}},
	}
	for _, s := range specs {
		d, err := Compile(s)
		if err != nil {
			t.Errorf("compile %s: %v", s.Kind, err)
			continue
		}
		r := rng.New(7)
		for i := 0; i < 100; i++ {
			x := d.Sample(r)
			if math.IsNaN(x) || x < 0 {
				t.Errorf("%s sample %v", s.Kind, x)
				break
			}
		}
	}
}

func TestCompileInvalid(t *testing.T) {
	if _, err := Compile(config.DistSpec{}); err == nil {
		t.Error("empty spec should fail")
	}
	if _, err := Compile(config.Exp(-1)); err == nil {
		t.Error("negative mean should fail")
	}
	// Structurally valid but numerically bad: weights that do not sum to 1.
	bad := config.DistSpec{Kind: config.KindPhaseExp, ExpStages: []config.ExpStageSpec{{W: 0.4, Theta: 1}}}
	if _, err := Compile(bad); err == nil {
		t.Error("non-normalized weights should fail")
	}
}

func TestCompileTruncation(t *testing.T) {
	spec := config.Exp(100)
	spec.Min, spec.Max = 50, 150
	d, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(11)
	for i := 0; i < 1000; i++ {
		x := d.Sample(r)
		if x < 50 || x > 150 {
			t.Fatalf("truncated sample %v escaped [50, 150]", x)
		}
	}
}

func TestTableCoversMass(t *testing.T) {
	tab, err := Table(config.Exp(1024))
	if err != nil {
		t.Fatal(err)
	}
	hi := tab.Xs[len(tab.Xs)-1]
	if hi < 1024*6 {
		t.Errorf("table upper bound %v too small for exp(1024)", hi)
	}
	// The table's mean should approximate the distribution's.
	if m := tab.Mean(); math.Abs(m-1024)/1024 > 0.05 {
		t.Errorf("table mean %v, want ~1024", m)
	}
}

func TestTableOfConstant(t *testing.T) {
	tab, err := Table(config.Const(5))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(3)
	for i := 0; i < 50; i++ {
		x := tab.Sample(r)
		if math.Abs(x-5) > 0.01 {
			t.Fatalf("constant table sampled %v", x)
		}
	}
}

func TestTableSamplingMatchesDistribution(t *testing.T) {
	// Inverse-transform sampling from the table must reproduce the
	// underlying exponential's quantiles.
	tab, err := Table(config.Exp(100))
	if err != nil {
		t.Fatal(err)
	}
	exp, err := dist.NewExponential(100)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		got := tab.InverseCDF(u)
		want := -100 * math.Log(1-u)
		if math.Abs(got-want)/want > 0.05 {
			t.Errorf("quantile %v: table %v, analytic %v", u, got, want)
		}
		_ = exp
	}
}

func TestFitExponential(t *testing.T) {
	r := rng.New(5)
	exp, err := dist.NewExponential(42)
	if err != nil {
		t.Fatal(err)
	}
	samples := make([]float64, 5000)
	for i := range samples {
		samples[i] = exp.Sample(r)
	}
	spec, d, err := Fit(samples, FamilyExponential, 0)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Kind != config.KindExponential {
		t.Errorf("spec kind = %s", spec.Kind)
	}
	if math.Abs(d.Mean()-42)/42 > 0.1 {
		t.Errorf("fitted mean %v, want ~42", d.Mean())
	}
}

func TestFitPhaseExpAndGammaRoundTrip(t *testing.T) {
	r := rng.New(9)
	orig, err := dist.NewPhaseTypeExp([]dist.ExpStage{
		{W: 0.6, Theta: 10},
		{W: 0.4, Theta: 30, Offset: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	samples := make([]float64, 8000)
	for i := range samples {
		samples[i] = orig.Sample(r)
	}
	for _, fam := range []FitFamily{FamilyPhaseExp, FamilyGamma} {
		spec, d, err := Fit(samples, fam, 2)
		if err != nil {
			t.Fatalf("fit %s: %v", fam, err)
		}
		if math.Abs(d.Mean()-orig.Mean())/orig.Mean() > 0.2 {
			t.Errorf("%s fitted mean %v, want ~%v", fam, d.Mean(), orig.Mean())
		}
		// The spec must compile back into an equivalent distribution.
		back, err := Compile(spec)
		if err != nil {
			t.Fatalf("recompile %s: %v", fam, err)
		}
		if math.Abs(back.Mean()-d.Mean()) > 1e-6 {
			t.Errorf("%s round trip mean %v != %v", fam, back.Mean(), d.Mean())
		}
	}
}

func TestFitUnknownFamily(t *testing.T) {
	if _, _, err := Fit([]float64{1, 2}, "weibull", 1); err == nil {
		t.Error("unknown family should fail")
	}
}

func TestBuildTables(t *testing.T) {
	spec := config.Default()
	ts, err := BuildTables(spec)
	if err != nil {
		t.Fatal(err)
	}
	if ts.AccessSize == nil {
		t.Fatal("missing access size table")
	}
	if len(ts.ThinkTime) != len(spec.UserTypes) {
		t.Errorf("think time tables = %d", len(ts.ThinkTime))
	}
	for i := range spec.Categories {
		if ts.FileSize[i] == nil || ts.AccessPerByte[i] == nil || ts.FilesAccessed[i] == nil {
			t.Errorf("category %d tables incomplete", i)
		}
	}
	// Table means should track the spec means.
	if m := ts.FileSize[0].Mean(); math.Abs(m-714)/714 > 0.1 {
		t.Errorf("category 0 file size table mean %v, want ~714", m)
	}
}

func TestBuildTablesInvalidSpec(t *testing.T) {
	spec := config.Default()
	spec.Users = 0
	if _, err := BuildTables(spec); err == nil {
		t.Error("invalid spec should fail")
	}
}
