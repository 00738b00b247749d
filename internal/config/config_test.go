package config

import (
	"bytes"
	"errors"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"uswg/internal/disk"
	"uswg/internal/vfs"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default spec invalid: %v", err)
	}
}

func TestDefaultCategoriesMatchPaperTables(t *testing.T) {
	cats := DefaultCategories()
	if len(cats) != 9 {
		t.Fatalf("categories = %d, want 9 (Table 5.1 rows)", len(cats))
	}
	var pctFiles float64
	for _, c := range cats {
		pctFiles += c.PercentFiles
	}
	if math.Abs(pctFiles-100) > 0.01 {
		t.Errorf("percent of files sums to %v, want 100", pctFiles)
	}
	// Spot-check the first and last rows against the published tables.
	first := cats[0]
	if first.Name() != "DIR/USER/RDONLY" || first.FileSize.Mean != 714 || first.PercentUsers != 69 {
		t.Errorf("first category = %+v", first)
	}
	last := cats[8]
	if last.Name() != "OTHER/OTHER/RDONLY" || last.FileSize.Mean != 15072 {
		t.Errorf("last category = %+v", last)
	}
	// The dominant category by file count is REG/USER/TEMP at 38.2%.
	if cats[5].Name() != "REG/USER/TEMP" || cats[5].PercentFiles != 38.2 {
		t.Errorf("TEMP category = %+v", cats[5])
	}
}

func TestCategoryHelpers(t *testing.T) {
	cats := DefaultCategories()
	if !cats[0].IsDir() {
		t.Error("DIR category should report IsDir")
	}
	if cats[2].IsDir() {
		t.Error("REG category should not report IsDir")
	}
	if cats[2].Writes() {
		t.Error("RDONLY should not write")
	}
	for _, i := range []int{3, 4, 5} { // NEW, RD-WRT, TEMP
		if !cats[i].Writes() {
			t.Errorf("category %s should write", cats[i].Name())
		}
	}
}

func TestPopulationFractions(t *testing.T) {
	cases := []struct {
		frac  float64
		types int
		first string
	}{
		{1.0, 1, UserHeavy},
		{0.0, 1, UserLight},
		{0.8, 2, UserHeavy},
		{0.2, 2, UserHeavy},
	}
	for _, c := range cases {
		pop := Population(c.frac)
		if len(pop) != c.types {
			t.Errorf("Population(%v) has %d types, want %d", c.frac, len(pop), c.types)
			continue
		}
		if pop[0].Name != c.first {
			t.Errorf("Population(%v)[0] = %s, want %s", c.frac, pop[0].Name, c.first)
		}
		var sum float64
		for _, u := range pop {
			sum += u.Fraction
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("Population(%v) fractions sum to %v", c.frac, sum)
		}
	}
}

func TestThinkTimeFor(t *testing.T) {
	if d := ThinkTimeFor(0); d.Kind != KindConstant || d.Value != 0 {
		t.Errorf("ThinkTimeFor(0) = %+v", d)
	}
	if d := ThinkTimeFor(5000); d.Kind != KindExponential || d.Mean != 5000 {
		t.Errorf("ThinkTimeFor(5000) = %+v", d)
	}
}

func TestDistSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec DistSpec
		ok   bool
	}{
		{"exp ok", Exp(5), true},
		{"exp zero mean", Exp(0), false},
		{"exp nan", DistSpec{Kind: KindExponential, Mean: math.NaN()}, false},
		{"const ok", Const(0), true},
		{"const negative", Const(-1), false},
		{"uniform ok", DistSpec{Kind: KindUniform, Lo: 1, Hi: 2}, true},
		{"uniform empty", DistSpec{Kind: KindUniform, Lo: 2, Hi: 2}, false},
		{"phase ok", DistSpec{Kind: KindPhaseExp, ExpStages: []ExpStageSpec{{W: 1, Theta: 3}}}, true},
		{"phase empty", DistSpec{Kind: KindPhaseExp}, false},
		{"gamma ok", DistSpec{Kind: KindGamma, GammaStages: []GammaStageSpec{{W: 1, Alpha: 2, Theta: 3}}}, true},
		{"gamma empty", DistSpec{Kind: KindGamma}, false},
		{"cdf ok", DistSpec{Kind: KindTableCDF, Xs: []float64{0, 1}, Ps: []float64{0, 1}}, true},
		{"cdf mismatched", DistSpec{Kind: KindTableCDF, Xs: []float64{0, 1}, Ps: []float64{0}}, false},
		{"missing kind", DistSpec{}, false},
		{"unknown kind", DistSpec{Kind: "zipf"}, false},
		{"truncation ok", DistSpec{Kind: KindExponential, Mean: 1, Min: 0.5, Max: 2}, true},
		{"truncation empty", DistSpec{Kind: KindExponential, Mean: 1, Min: 2, Max: 1}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.spec.Validate()
			if c.ok && err != nil {
				t.Errorf("unexpected error: %v", err)
			}
			if !c.ok && err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestSpecValidateRejects(t *testing.T) {
	mutations := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"zero users", func(s *Spec) { s.Users = 0 }},
		{"zero sessions", func(s *Spec) { s.Sessions = 0 }},
		{"no user types", func(s *Spec) { s.UserTypes = nil }},
		{"bad fractions", func(s *Spec) { s.UserTypes[0].Fraction = 0.5 }},
		{"duplicate user type", func(s *Spec) {
			s.UserTypes = []UserType{
				{Name: "x", ThinkTime: Exp(1), Fraction: 0.5},
				{Name: "x", ThinkTime: Exp(1), Fraction: 0.5},
			}
		}},
		{"bad access size", func(s *Spec) { s.AccessSize = DistSpec{} }},
		{"no categories", func(s *Spec) { s.Categories = nil }},
		{"duplicate category", func(s *Spec) { s.Categories = append(s.Categories, s.Categories[0]) }},
		{"percent files off", func(s *Spec) { s.Categories[0].PercentFiles += 50 }},
		{"percent users range", func(s *Spec) { s.Categories[0].PercentUsers = 150 }},
		{"zero files per user", func(s *Spec) { s.FilesPerUser = 0 }},
		{"negative max ops", func(s *Spec) { s.MaxOpsPerSession = -1 }},
		{"unknown fs", func(s *Spec) { s.FS.Kind = "ramdisk" }},
		{"real without root", func(s *Spec) { s.FS = FSSpec{Kind: FSReal} }},
		{"bad nfs server", func(s *Spec) { s.FS.Server.NFSDs = 0 }},
		// A partial local block must fail, not run the default block and
		// drop the knob it set.
		{"partial local block", func(s *Spec) {
			s.FS = FSSpec{Kind: FSLocal, Local: vfs.LocalCostConfig{MetaTime: 50000}}
		}},
		{"negative local costs", func(s *Spec) {
			s.FS = FSSpec{Kind: FSLocal, Local: vfs.LocalCostConfig{
				Disk:     disk.Model{SeekTime: -1, HalfRotation: -1, TransferPerBlock: -1, BlockSize: 4096},
				MetaTime: -1, HitPerBlock: -1,
			}}
		}},
		{"negative local cache", func(s *Spec) {
			s.FS = FSSpec{Kind: FSLocal, Local: vfs.DefaultLocalCostConfig()}
			s.FS.Local.CacheBlocks = -1
		}},
		{"lifecycle on real fs", func(s *Spec) {
			mttf := Exp(1e6)
			s.UserTypes[0].Lifecycle = &Lifecycle{MTTF: &mttf}
			s.FS = FSSpec{Kind: FSReal, RealRoot: "/tmp/sandbox"}
		}},
		// A trace window narrower than the 1 µs resolution of record
		// times, or infinite, would index windows no collector can hold.
		{"trace window 1e-300", func(s *Spec) { s.Trace.WindowUS = 1e-300 }},
		{"trace window 0.5", func(s *Spec) { s.Trace.WindowUS = 0.5 }},
		{"trace window +Inf", func(s *Spec) { s.Trace.WindowUS = math.Inf(1) }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			s := Default()
			m.mutate(s)
			if err := s.Validate(); err == nil {
				t.Error("expected validation error")
			}
		})
	}
}

func TestSpecValidateTraceWindow(t *testing.T) {
	for _, w := range []float64{0, 1, 1e7} {
		s := Default()
		s.Trace.WindowUS = w
		if err := s.Validate(); err != nil {
			t.Errorf("window_us %v: %v", w, err)
		}
	}
}

func TestSpecValidateLocalAndReal(t *testing.T) {
	s := Default()
	s.FS = FSSpec{Kind: FSLocal}
	if err := s.Validate(); err != nil {
		t.Errorf("local fs: %v", err)
	}
	// The all-zero local block means the default, also beside the NFS
	// blocks a patch over the default spec keeps.
	s.FS = Default().FS
	s.FS.Kind = FSLocal
	if err := s.Validate(); err != nil {
		t.Errorf("local fs over the default nfs blocks: %v", err)
	}
	s.FS = FSSpec{Kind: FSLocal, Local: vfs.DefaultLocalCostConfig()}
	if err := s.Validate(); err != nil {
		t.Errorf("local fs with the default block: %v", err)
	}
	s.FS = FSSpec{Kind: FSReal, RealRoot: "/tmp/sandbox"}
	if err := s.Validate(); err != nil {
		t.Errorf("real fs: %v", err)
	}
}

func TestMaxOpsDefault(t *testing.T) {
	s := Default()
	if s.MaxOps() != 10000 {
		t.Errorf("MaxOps default = %d", s.MaxOps())
	}
	s.MaxOpsPerSession = 42
	if s.MaxOps() != 42 {
		t.Errorf("MaxOps override = %d", s.MaxOps())
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := Default()
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != s.Name || back.Seed != s.Seed || len(back.Categories) != len(s.Categories) {
		t.Errorf("round trip lost data: %+v", back)
	}
	if back.Categories[5].FileSize.Mean != s.Categories[5].FileSize.Mean {
		t.Error("category distribution lost in round trip")
	}
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	if _, err := Decode(strings.NewReader(`{"bogus_field": 1}`)); err == nil {
		t.Error("unknown fields should be rejected")
	}
	// The topology block is the fleet shape only: a server, client or wire
	// knob set inside it is an unknown field, not an override of fs.server
	// or fs.client.
	s := Default()
	s.FS.Topology = &Topology{Servers: 2}
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	for _, kv := range []string{`"nfsds": 2`, `"server": {"NFSDs": 2}`, `"client": {"WireBlock": 1024}`, `"net": {"LatencyPerMessage": 10}`} {
		js := strings.Replace(buf.String(), `"servers": 2`, `"servers": 2, `+kv, 1)
		key := kv[:strings.Index(kv, ":")]
		if _, err := Decode(strings.NewReader(js)); err == nil || !strings.Contains(err.Error(), "unknown field "+key) {
			t.Errorf("topology %s: err = %v, want unknown field %s", key, err, key)
		}
	}
}

// TestDecodeRejectsTrailingData: a spec file holds one JSON object, so
// garbage, a second spec (two files concatenated) or a stray brace after it
// fail instead of being silently ignored; trailing whitespace is fine.
func TestDecodeRejectsTrailingData(t *testing.T) {
	var buf bytes.Buffer
	if err := Default().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	js := buf.String()
	for _, tail := range []string{"garbage", js, "}"} {
		if _, err := Decode(strings.NewReader(js + tail)); !errors.Is(err, ErrSpec) {
			t.Errorf("trailing %.20q: err = %v, want ErrSpec", tail, err)
		}
	}
	if _, err := Decode(strings.NewReader(js + " \t\r\n")); err != nil {
		t.Errorf("trailing whitespace rejected: %v", err)
	}
}

func TestDecodeRejectsInvalidSpec(t *testing.T) {
	if _, err := Decode(strings.NewReader(`{"name":"x"}`)); !errors.Is(err, ErrSpec) {
		t.Errorf("invalid spec error = %v, want ErrSpec", err)
	}
}

func TestSaveLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spec.json")
	s := Default()
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != s.Name {
		t.Errorf("loaded name = %q", back.Name)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file should error")
	}
}
