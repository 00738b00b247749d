package artifact

// Curve-shape tests: the paper's qualitative claims, asserted on the
// committed golden points (testdata/golden/points). TestGolden ties that
// data to the code, so these run no simulation, and a regenerated golden
// folder that breaks a claim of the paper fails here.

import (
	"encoding/csv"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// goldenRows reads points/<name>.csv from the golden folder and returns its
// data rows (header dropped).
func goldenRows(t *testing.T, name string) [][]string {
	t.Helper()
	f, err := os.Open(filepath.Join(goldenDir, DirPoints, fileName(name)+".csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(rows) < 2 {
		t.Fatalf("%s: no data rows", name)
	}
	return rows[1:]
}

// num parses a cell's leading number: "918(917)" is 918, "71.2%" is 71.2.
func num(t *testing.T, cell string) float64 {
	t.Helper()
	end := strings.IndexAny(cell, "(%")
	if end < 0 {
		end = len(cell)
	}
	v, err := strconv.ParseFloat(cell[:end], 64)
	if err != nil {
		t.Fatalf("cell %q: %v", cell, err)
	}
	return v
}

// inner returns the parenthesized number of a "mean(std)" cell.
func inner(t *testing.T, cell string) float64 {
	t.Helper()
	lo, hi := strings.IndexByte(cell, '('), strings.IndexByte(cell, ')')
	if lo < 0 || hi < lo {
		t.Fatalf("cell %q: no (std)", cell)
	}
	return num(t, cell[lo+1:hi])
}

// sweep returns a six-point sweep's response-per-byte column.
func sweep(t *testing.T, name string) []float64 {
	t.Helper()
	rows := goldenRows(t, name)
	if len(rows) != 6 {
		t.Fatalf("%s: points = %d, want 6", name, len(rows))
	}
	ys := make([]float64, len(rows))
	for i, row := range rows {
		if ys[i] = num(t, row[1]); ys[i] <= 0 {
			t.Fatalf("%s: non-positive response/byte at x=%s", name, row[0])
		}
	}
	return ys
}

func slope(ys []float64) float64 { return ys[len(ys)-1] - ys[0] }

func TestFig56LinearGrowth(t *testing.T) {
	ys := sweep(t, "fig5.6")
	// Zero think time saturates the server: response/byte at 6 users must
	// be well above 1 user (the thesis's near-linear growth).
	if ys[5] < ys[0]*2 {
		t.Errorf("6-user response/byte %v not >> 1-user %v", ys[5], ys[0])
	}
	// At reduced scale single points are noisy (the thesis averages 50
	// sessions per point), so allow two inversions on a strong rise.
	drops := 0
	for i := 1; i < len(ys); i++ {
		if ys[i] < ys[i-1] {
			drops++
		}
	}
	if drops > 2 {
		t.Errorf("curve not increasing: %v", ys)
	}
}

// TestThinkSweepsFlattenAgainstFig56: every think-time population's curve
// (Figures 5.7-5.11) rises more gently than Figure 5.6's zero-think curve —
// the thesis: "the slopes in these figures are not as large as that in
// Figure 5.6 because the competition for resources is not as heavy" — and
// the all-light mix flattens below the all-heavy one.
func TestThinkSweepsFlattenAgainstFig56(t *testing.T) {
	zero := slope(sweep(t, "fig5.6"))
	if zero <= 0 {
		t.Fatalf("Fig 5.6 curve did not rise: slope %v", zero)
	}
	names := []string{"fig5.7", "fig5.8", "fig5.9", "fig5.10", "fig5.11"}
	slopes := make([]float64, len(names))
	for i, name := range names {
		slopes[i] = slope(sweep(t, name))
		if slopes[i] >= zero {
			t.Errorf("%s slope %v not below Fig 5.6's zero-think slope %v", name, slopes[i], zero)
		}
	}
	if slopes[4] >= slopes[0] {
		t.Errorf("Fig 5.11 slope %v should be below Fig 5.7 slope %v", slopes[4], slopes[0])
	}
}

// TestThinkTimeFlattensSlope: the all-light population (Figure 5.11) rises
// more gently than the zero-think one (Figure 5.6).
func TestThinkTimeFlattensSlope(t *testing.T) {
	heavy, light := slope(sweep(t, "fig5.6")), slope(sweep(t, "fig5.11"))
	if light >= heavy {
		t.Errorf("light slope %v should be below extremely-heavy slope %v", light, heavy)
	}
}

// TestHeavyLightMixesSimilar: the thesis observes that populations with
// 5000 vs 20000 µs think times produce similar average response times.
func TestHeavyLightMixesSimilar(t *testing.T) {
	mean := func(ys []float64) float64 {
		var s float64
		for _, y := range ys {
			s += y
		}
		return s / float64(len(ys))
	}
	heavy, light := mean(sweep(t, "fig5.7")), mean(sweep(t, "fig5.11"))
	if heavy > light*4 || light > heavy*4 {
		t.Errorf("heavy (%v) and light (%v) populations should be the same order of magnitude", heavy, light)
	}
}

// TestFig512LargerAccessesAmortize: larger accesses amortize per-call
// overhead, so response/byte at 2048 B is well below 128 B.
func TestFig512LargerAccessesAmortize(t *testing.T) {
	ys := sweep(t, "fig5.12")
	if ys[5] >= ys[0]*0.7 {
		t.Errorf("response/byte at 2048 B (%v) should be well below 128 B (%v)", ys[5], ys[0])
	}
}

func TestTable53ResponseGrowsWithUsers(t *testing.T) {
	rows := goldenRows(t, "table5.3")
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	// Access size is load-independent: roughly constant across rows.
	base := num(t, rows[0][1])
	for _, row := range rows {
		if access := num(t, row[1]); access < base*0.7 || access > base*1.3 {
			t.Errorf("users=%s access mean %v drifted from %v", row[0], access, base)
		}
		if inner(t, row[2]) <= 0 {
			t.Errorf("users=%s response std = %s", row[0], row[2])
		}
	}
	// Response time grows with contention: 6 users above 1 user.
	if r1, r6 := num(t, rows[0][2]), num(t, rows[5][2]); r6 <= r1 {
		t.Errorf("response mean did not grow: 1 user %v, 6 users %v", r1, r6)
	}
}

func TestTable51ShapesHold(t *testing.T) {
	rows := goldenRows(t, "table5.1")
	if len(rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(rows))
	}
	for _, row := range rows {
		if num(t, row[3]) == 0 {
			t.Errorf("%s: no files", row[0])
		}
		// Created percentages track the spec within a few points (rounding
		// to whole files perturbs small categories).
		if diff := num(t, row[5]) - num(t, row[2]); math.Abs(diff) > 6 {
			t.Errorf("%s: created %s%% vs spec %s%%", row[0], row[5], row[2])
		}
	}
}

// TestTable52ShapesHold: REG/USER/RDONLY is accessed by 100% of users in the
// spec, so its observed session share must be high.
func TestTable52ShapesHold(t *testing.T) {
	rows := goldenRows(t, "table5.2")
	if len(rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(rows))
	}
	for _, row := range rows {
		if row[0] == "REG/USER/RDONLY" {
			if obs := num(t, row[6]); obs < 90 {
				t.Errorf("REG/USER/RDONLY observed in %v%% of sessions, want ~100%%", obs)
			}
			return
		}
	}
	t.Fatal("missing category REG/USER/RDONLY")
}

// TestTable54: the three user types of Table 5.4 with their think times.
func TestTable54(t *testing.T) {
	want := [][]string{{"extremely-heavy", "0"}, {"heavy", "5000"}, {"light", "20000"}}
	rows := goldenRows(t, "table5.4")
	if len(rows) != len(want) {
		t.Fatalf("rows = %v, want %v", rows, want)
	}
	for i, row := range rows {
		if row[0] != want[i][0] || row[1] != want[i][1] {
			t.Errorf("row %d = %v, want %v", i, row, want[i])
		}
	}
}

// TestFigureDensities: Figures 5.1 and 5.2 each plot three labelled
// density panels.
func TestFigureDensities(t *testing.T) {
	for _, name := range []string{"fig5.1", "fig5.2"} {
		var panels []string
		for _, row := range goldenRows(t, name) {
			if len(panels) == 0 || panels[len(panels)-1] != row[0] {
				panels = append(panels, row[0])
			}
		}
		if len(panels) != 3 {
			t.Fatalf("%s: panels = %v, want 3", name, panels)
		}
		for _, p := range panels {
			if !strings.Contains(p, "f(x)") {
				t.Errorf("%s: panel %q has no density label", name, p)
			}
		}
	}
}

// TestFig53to55Histograms: every usage histogram counts each session once,
// and smoothing redistributes the counts, losing or gaining mass only at
// the truncated edge windows.
func TestFig53to55Histograms(t *testing.T) {
	raw, smoothed := map[string]float64{}, map[string]float64{}
	var panels []string
	for _, row := range goldenRows(t, "fig5.3") {
		if _, seen := raw[row[0]]; !seen {
			panels = append(panels, row[0])
		}
		raw[row[0]] += num(t, row[2])
		smoothed[row[0]] += num(t, row[3])
	}
	if len(panels) != 3 {
		t.Fatalf("panels = %v, want 3", panels)
	}
	sessions := raw[panels[0]]
	if sessions == 0 {
		t.Fatalf("%s: empty histogram", panels[0])
	}
	for _, p := range panels {
		if raw[p] != sessions {
			t.Errorf("%s: %v sessions, want %v like %s", p, raw[p], sessions, panels[0])
		}
		if math.Abs(smoothed[p]-raw[p]) > 0.05*raw[p] {
			t.Errorf("%s: smoothing moved the total from %v to %v", p, raw[p], smoothed[p])
		}
	}
}

// TestScale51ContentionGrows: past the published range, response time per
// byte keeps growing with the population, and every point executed work.
func TestScale51ContentionGrows(t *testing.T) {
	rows := goldenRows(t, "scale5.1")
	want := []float64{50, 100, 200, 500, 1000}
	if len(rows) != len(want) {
		t.Fatalf("points = %d, want %d", len(rows), len(want))
	}
	for i, row := range rows {
		if users := num(t, row[0]); users != want[i] {
			t.Errorf("point %d users = %v, want %v", i, users, want[i])
		}
		if num(t, row[2]) == 0 || num(t, row[3]) <= 0 {
			t.Errorf("point %d executed no work: %v", i, row)
		}
	}
	if first, last := num(t, rows[0][3]), num(t, rows[len(rows)-1][3]); last <= first {
		t.Errorf("contention did not grow: %v µs/B at 50 users vs %v at 1000", first, last)
	}
}
