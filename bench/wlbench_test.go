package main

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"uswg/internal/config"
)

// benchmarkFile mirrors BENCHMARK.json at the root of the repository.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkFile
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// smallSpec returns a workload with its sessions cut to a few per user, for
// runs that must finish in well under a second.
func smallSpec(t *testing.T, name string) *config.Spec {
	t.Helper()
	spec, err := loadWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	spec.Sessions = 2 * spec.Users
	return spec
}

func testReference(t *testing.T) *reference {
	t.Helper()
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

func TestWorkloadsDecodeAndValidate(t *testing.T) {
	entries, err := fs.ReadDir(files, "workloads")
	if err != nil {
		t.Fatal(err)
	}
	var found []string
	for _, e := range entries {
		found = append(found, strings.TrimSuffix(e.Name(), ".json"))
	}
	if want := slices.Sorted(slices.Values(workloadNames)); !slices.Equal(found, want) {
		t.Fatalf("workloads/ holds %v, want %v", found, want)
	}
	ref := testReference(t)
	for _, name := range workloadNames {
		spec, err := loadWorkload(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := spec.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if ref.Digests[name] == "" {
			t.Errorf("expected.json has no digest for %s", name)
		}
	}
}

func TestBenchmarkFileMatchesTables(t *testing.T) {
	b := readBenchmarkFile(t)
	if !slices.Equal(b.Paths, []string{"bench"}) {
		t.Errorf("paths %v", b.Paths)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, workloadNames)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		got := b.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better || got.Bound != m.bound {
			t.Errorf("end_to_end[%d] = %+v, benchmark has %+v", i, got, m)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		got := b.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per_layer[%d] = %+v, benchmark has %+v", i, got, m)
		}
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := make(map[string]bool)
	for _, m := range slices.Concat(endToEnd, perLayer) {
		if !nameRE.MatchString(m.name) || seen[m.name] {
			t.Errorf("metric name %q is malformed or repeated", m.name)
		}
		seen[m.name] = true
	}
}

// lastLine decodes the summary line that ends a report.
func lastLine(t *testing.T, out string) summary {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var s summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return s
}

func TestSmokeRunPrintsTheListedMetrics(t *testing.T) {
	b := readBenchmarkFile(t)
	ref := testReference(t)
	for _, traced := range []bool{false, true} {
		var want []string
		for _, m := range b.EndToEnd {
			want = append(want, m.Name)
		}
		if traced {
			want = want[:0]
			for _, m := range b.PerLayer {
				want = append(want, m.Name)
			}
		}
		o, err := runWorkload(ref, "contention", smallSpec(t, "contention"), options{seed: 7, seconds: 0.01, trace: traced})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		report(&buf, o, ref.C0)
		s := lastLine(t, buf.String())
		var got []string
		for name, v := range s.Metrics {
			got = append(got, name)
			if v.Unit == "" {
				t.Errorf("%s has no unit", name)
			}
		}
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("traced %v: summary metrics %v, want %v", traced, got, want)
		}
		if !s.Correct || s.Failed != 0 || s.Attempted < minReps {
			t.Errorf("traced %v: summary %+v, problems %v", traced, s, o.Problems)
		}
	}
}

func TestDigestRepeatsAndTracksTheSeed(t *testing.T) {
	spec := smallSpec(t, "local")
	a, _, err := runRep(spec, 7, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := runRep(spec, 7, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := runRep(spec, 8, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.digest != b.digest {
		t.Errorf("same seed, digests %s and %s", a.digest, b.digest)
	}
	if a.digest == c.digest {
		t.Errorf("seeds 7 and 8 share digest %s", a.digest)
	}
}

func TestRep0MustRepeatTheExpectedDigest(t *testing.T) {
	ref := testReference(t)
	wrong := &reference{C0: ref.C0, Digests: map[string]string{"contention": "0000000000000000"}}
	o, err := runWorkload(wrong, "contention", smallSpec(t, "contention"), options{seed: defaultSeed, seconds: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if o.Failed != 1 || len(o.Problems) != 1 || !strings.Contains(o.Problems[0], "expected.json") {
		t.Errorf("failed %d, problems %v; want rep 0 flagged against expected.json", o.Failed, o.Problems)
	}
}

func TestVerdict(t *testing.T) {
	lower := metric{name: "wall_s", better: "lower", bound: 0.10}
	higher := metric{name: "ops_per_s", better: "higher", bound: 0.10}
	base := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	wide := []float64{0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25}
	for _, c := range []struct {
		name string
		m    metric
		a, b []float64
		want string
	}{
		{"same", lower, base, scale(base, 1.01), verdictOK},
		{"within bound", lower, base, scale(base, 1.05), verdictOK},
		{"slower beyond bound", lower, base, scale(base, 1.2), verdictRegressed},
		{"faster", lower, base, scale(base, 0.8), verdictOK},
		{"throughput drop", higher, base, scale(base, 0.8), verdictRegressed},
		{"throughput gain", higher, base, scale(base, 1.2), verdictOK},
		{"wide spread", lower, base, scale(wide, 1.15), verdictUnresolved},
		{"wide but every run better", lower, scale(wide, 2), wide, verdictOK},
		{"no samples", lower, base, nil, verdictUnresolved},
	} {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareChecksSharedDigests(t *testing.T) {
	run := func(seed uint64, wall float64, digests ...string) *outcome {
		o := &outcome{Workload: "contention", Seed: seed, Digests: digests}
		for _, m := range endToEnd {
			o.add(m.name, m.unit, wall)
		}
		return o
	}
	base := []*outcome{run(1, 1.00, "a", "b"), run(2, 1.01, "c")}
	for _, c := range []struct {
		name string
		cand []*outcome
		want bool
	}{
		{"same digests", []*outcome{run(1, 1.0, "a", "b", "x"), run(2, 1.0, "c")}, true},
		{"other seeds", []*outcome{run(3, 1.0, "z")}, true},
		{"digest differs", []*outcome{run(1, 1.0, "a", "B")}, false},
		{"regressed", []*outcome{run(1, 1.5, "a"), run(2, 1.5, "c")}, false},
	} {
		var buf bytes.Buffer
		if got := compare(&buf, base, c.cand); got != c.want {
			t.Errorf("%s: compare passed %v, want %v\n%s", c.name, got, c.want, buf.String())
		}
	}
}

func TestQuartilesAndTail(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles %v %v, want 2.75 8.25", q1, q3)
	}
	if m := median(xs); m != 5.5 {
		t.Errorf("median %v", m)
	}
	var eighty []float64
	for i := 1; i <= 80; i++ {
		eighty = append(eighty, float64(i))
	}
	if pct, v, ok := tail(eighty, "lower"); !ok || pct != 87 || v != 70 {
		t.Errorf("high tail of 80 samples: p%d = %v (ok %v), want p87 = 70", pct, v, ok)
	}
	if pct, v, ok := tail(eighty, "higher"); !ok || pct != 13 || v != 11 {
		t.Errorf("low tail of 80 samples: p%d = %v (ok %v), want p13 = 11", pct, v, ok)
	}
	if _, _, ok := tail(xs, "lower"); ok {
		t.Error("tail of 10 samples should not exist")
	}
}
