package gds

import (
	"encoding/json"
	"math"
	"testing"

	"uswg/internal/config"
	"uswg/internal/rng"
)

// FuzzCompile feeds arbitrary DistSpec JSON through Table, the path every
// spec distribution takes to the samplers: compiling and tabulating never
// panics, and a table that compiles draws only finite samples. The seeds
// are the default spec's distributions and one spec of each other kind.
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
	})
}
