package gds

import (
	"encoding/json"
	"math"
	"sort"
	"testing"

	"uswg/internal/config"
	"uswg/internal/dist"
	"uswg/internal/rng"
)

// FuzzCompile feeds arbitrary DistSpec JSON through Table, the path every
// spec distribution takes to the samplers: compiling and tabulating never
// panics, a table that compiles draws only finite samples, and its
// InverseCDF equals the binary-search quantile bit for bit (see
// checkQuantiles). The seeds are the default spec's distributions and one
// spec of each other kind.
func FuzzCompile(f *testing.F) {
	s := config.Default()
	seeds := []config.DistSpec{s.AccessSize,
		{Kind: config.KindUniform, Lo: 1, Hi: 9},
		{Kind: config.KindConstant, Value: 3},
		{Kind: config.KindTableCDF, Xs: []float64{0, 1, 4}, Ps: []float64{0, 0.5, 1}},
		{Kind: config.KindTablePDF, Xs: []float64{0, 1, 4}, Ps: []float64{1, 2, 1}},
		{Kind: config.KindExponential, Mean: 100, Min: 10, Max: 50},
	}
	for _, u := range s.UserTypes {
		seeds = append(seeds, u.ThinkTime)
	}
	for _, c := range s.Categories {
		seeds = append(seeds, c.FileSize)
	}
	for _, d := range seeds {
		js, err := json.Marshal(d)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := Table(d); err != nil {
			f.Fatalf("seed %s does not tabulate: %v", js, err)
		}
		f.Add(js)
	}
	f.Fuzz(func(t *testing.T, x []byte) {
		var spec config.DistSpec
		if err := json.Unmarshal(x, &spec); err != nil {
			return
		}
		tab, err := Table(spec)
		if err != nil {
			return
		}
		r := rng.New(1)
		for i := 0; i < 64; i++ {
			if v := tab.Sample(r); math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("sample %d = %v from %s", i, v, x)
			}
		}
		checkQuantiles(t, tab, x)
	})
}

// checkQuantiles holds the table's guided InverseCDF to the standard
// library's binary search: at random draws, at every table point and its
// float neighbours, and at every edge k/K of the guide's
// K = max(1, len(Ps)/4) buckets, the draw must equal bit for bit the
// endpoint clamp or the interpolation at the index sort.SearchFloat64s
// returns.
func checkQuantiles(t *testing.T, tab *dist.CDFTable, x []byte) {
	ps, xs := tab.Ps, tab.Xs
	last := len(ps) - 1
	want := func(u float64) float64 {
		if u <= ps[0] {
			return xs[0]
		}
		if u >= ps[last] {
			return xs[last]
		}
		i := sort.SearchFloat64s(ps, u)
		return xs[i-1] + (u-ps[i-1])/(ps[i]-ps[i-1])*(xs[i]-xs[i-1])
	}
	r := rng.New(2)
	us := []float64{0, 1}
	for i := 0; i < 64; i++ {
		us = append(us, r.Float64())
	}
	for _, p := range ps {
		us = append(us, p, math.Nextafter(p, -1), math.Nextafter(p, 2))
	}
	k := max(1, len(ps)/4)
	for b := 0; b <= k; b++ {
		e := float64(b) / float64(k)
		us = append(us, e, math.Nextafter(e, -1), math.Nextafter(e, 2))
	}
	for _, u := range us {
		if got, w := tab.InverseCDF(u), want(u); math.Float64bits(got) != math.Float64bits(w) {
			t.Fatalf("InverseCDF(%v) = %v, binary search gives %v, from %s", u, got, w, x)
		}
	}
}
