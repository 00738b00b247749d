// Package uswg's benchmark harness: one testing.B benchmark per registered
// scenario (every table and figure of the thesis's evaluation, Chapter 5,
// plus the fault and scale extensions), ablation benches for the design
// choices DESIGN.md calls out, and the microbenchmarks the CI bench gate
// checks. Run with:
//
//	go test -bench=. -benchmem
//
// Each scenario runs at a reduced scale (sessions shrink, shapes hold);
// curve scenarios report their first and last y values as custom metrics,
// so a bench run doubles as a shape check:
//
//	BenchmarkScenario/fig5.6 ... y_first=... y_last=...
package uswg

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"uswg/internal/config"
	"uswg/internal/core"
	"uswg/internal/gds"
	"uswg/internal/rng"
	"uswg/internal/scenario"
	"uswg/internal/stats"
	"uswg/internal/trace"
)

// benchScale shrinks session counts; shapes are preserved.
const benchScale = 0.2

// BenchmarkScenario runs every registered scenario by name, with sweep
// points fanned out across GOMAXPROCS goroutines (the Options.Parallelism
// default).
func BenchmarkScenario(b *testing.B) {
	opts := scenario.Options{Scale: benchScale}
	for _, name := range scenario.Names() {
		sc, _ := scenario.Lookup(name)
		b.Run(name, func(b *testing.B) {
			var res scenario.Result
			for i := 0; i < b.N; i++ {
				var err error
				if res, err = scenario.Run(context.Background(), sc, opts); err != nil {
					b.Fatal(err)
				}
			}
			if c, ok := res.(*scenario.CurveResult); ok && len(c.YS) > 0 {
				b.ReportMetric(c.YS[0], "y_first")
				b.ReportMetric(c.YS[len(c.YS)-1], "y_last")
			}
		})
	}
}

// ------------------------------------------------------------------ ablations

// ablationRun executes one default-workload run with the given spec tweak
// and returns mean response per byte.
func ablationRun(b *testing.B, mutate func(*config.Spec)) float64 {
	b.Helper()
	spec := config.Default()
	spec.Users = 3
	spec.Sessions = 24
	mutate(spec)
	gen, err := core.NewGenerator(spec)
	if err != nil {
		b.Fatal(err)
	}
	res, err := gen.Run()
	if err != nil {
		b.Fatal(err)
	}
	return res.Analysis.MeanResponsePerByte()
}

// BenchmarkAblationServerCache compares the NFS server with and without its
// block cache (DESIGN.md ablation: cache drives response-time variance).
func BenchmarkAblationServerCache(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = ablationRun(b, func(s *config.Spec) {})
		without = ablationRun(b, func(s *config.Spec) { s.FS.Server.CacheBlocks = 0 })
	}
	b.ReportMetric(with, "resp_us_per_byte_cache")
	b.ReportMetric(without, "resp_us_per_byte_nocache")
}

// BenchmarkAblationNFSDPool compares 1, 4, and 8 server daemons.
func BenchmarkAblationNFSDPool(b *testing.B) {
	for _, nfsds := range []int{1, 4, 8} {
		nfsds := nfsds
		b.Run(fmt.Sprintf("nfsds=%d", nfsds), func(b *testing.B) {
			var rpb float64
			for i := 0; i < b.N; i++ {
				rpb = ablationRun(b, func(s *config.Spec) { s.FS.Server.NFSDs = nfsds })
			}
			b.ReportMetric(rpb, "resp_us_per_byte")
		})
	}
}

// BenchmarkAblationMarkovStream compares the thesis's independent operation
// stream with the §6.2 first-order Markov extension: locality lengthens
// same-file runs, which raises client/server cache hit rates and lowers
// response time per byte.
func BenchmarkAblationMarkovStream(b *testing.B) {
	var independent, markov float64
	for i := 0; i < b.N; i++ {
		independent = ablationRun(b, func(s *config.Spec) {})
		markov = ablationRun(b, func(s *config.Spec) { s.Ext.Locality = 0.8 })
	}
	b.ReportMetric(independent, "resp_us_per_byte_independent")
	b.ReportMetric(markov, "resp_us_per_byte_markov")
}

// BenchmarkAblationSmoothingWindow times the Figures 5.3-5.5 smoothing pass
// across window widths, on the access-per-byte histogram of one run.
func BenchmarkAblationSmoothingWindow(b *testing.B) {
	spec := config.Default()
	spec.Sessions = 120
	gen, err := core.NewGenerator(spec)
	if err != nil {
		b.Fatal(err)
	}
	res, err := gen.Run()
	if err != nil {
		b.Fatal(err)
	}
	h, err := stats.NewHistogram(0, 10, 40)
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range res.Analysis.SessionValues(func(s trace.SessionUsage) float64 { return s.AccessPerByte }) {
		h.Add(v)
	}
	for _, w := range []int{3, 5, 9} {
		b.Run(fmt.Sprintf("window=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = h.Smoothed(w)
			}
		})
	}
}

// ------------------------------------------------------------ microbenches

// BenchmarkCDFTableSampling times inverse-transform sampling from a GDS
// table (the generator's hottest path).
func BenchmarkCDFTableSampling(b *testing.B) {
	tab, err := gds.Table(config.Exp(1024))
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tab.Sample(r)
	}
}

// BenchmarkSessionThroughput measures end-to-end sessions per second of the
// full stack (GDS + FSC + USIM + NFS sim).
func BenchmarkSessionThroughput(b *testing.B) {
	spec := config.Default()
	spec.Sessions = 10
	for i := 0; i < b.N; i++ {
		spec.Seed = uint64(i + 1)
		gen, err := core.NewGenerator(spec)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := gen.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(10*b.N)/b.Elapsed().Seconds(), "sessions/s")
}

// BenchmarkIdleUserFootprint measures what an idle user costs under lazy
// materialization: a 10,000-user pooled population where only 100 users
// ever hold a session, so B/op and allocs/op are dominated by the 9,900
// idle slots. The per-idle-user byte figure is reported as a custom metric;
// the bench gate's allocs/op check is what catches an idle-cost regression.
func BenchmarkIdleUserFootprint(b *testing.B) {
	spec := config.Default()
	spec.Users = 10000
	spec.Sessions = 100
	spec.SystemFiles = 60
	spec.FilesPerUser = 4
	spec.Trace = config.TraceSpec{Mode: config.TraceStream}
	spec.FS.Topology = &config.Topology{Servers: 4, ClientPool: 16}
	spec.LazyUsers = true
	idle := float64(spec.Users - spec.Sessions)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec.Seed = uint64(i + 1)
		gen, err := core.NewGenerator(spec)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := gen.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/idle, "B/idle_user")
}

// BenchmarkPooledThroughput measures end-to-end sessions per second of the
// scale-out stack: a large population multiplexed over pooled clients on a
// 4-island fleet, where construction and warming are proportional to
// distinct files and pool width rather than users x files.
func BenchmarkPooledThroughput(b *testing.B) {
	spec := config.Default()
	spec.Users = 500
	spec.Sessions = 10
	spec.SystemFiles = 60
	spec.FilesPerUser = 4
	spec.Trace = config.TraceSpec{Mode: config.TraceStream}
	spec.FS.Topology = &config.Topology{Servers: 4, ClientPool: 16}
	for i := 0; i < b.N; i++ {
		spec.Seed = uint64(i + 1)
		gen, err := core.NewGenerator(spec)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := gen.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(10*b.N)/b.Elapsed().Seconds(), "sessions/s")
}
