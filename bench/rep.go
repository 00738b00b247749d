package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"

	"uswg/internal/config"
	"uswg/internal/core"
	"uswg/internal/trace"
)

// repSeed returns the seed of rep i of a run with base seed base: the base
// itself for rep 0, then a golden-ratio stride, so every rep simulates
// different inputs and runs with nearby base seeds share no rep.
func repSeed(base uint64, i int) uint64 { return base + uint64(i)*0x9E3779B97F4A7C15 }

// counts are the simulated quantities a rep reads back through the
// generator's public accessors. They are a pure function of spec and seed,
// so all of them enter the rep's digest. Field order is the digest's byte
// order: append only.
type counts struct {
	Sessions, Ops, Errors         int64
	BuildOps, UsersBuilt, WarmOps int64
	Messages, Bytes               int64
	NetUtil, BlockedUS            float64
	ServerCalls, ServerDataCalls  int64
	NFSDUtil, NFSDWaitUS          float64
	ClientRPCs, ClientFlushes     int64
	ServerHits, ServerMisses      int64
	ClientHits, ClientMisses      int64
	LocalHits, LocalMisses        int64
	VirtualS                      float64
}

// readCounts gathers a finished rep's counts. Clients of the single-island
// topology are private to core and count as zero; fleet clients are read
// through the islands' pools.
func readCounts(gen *core.Generator, res *core.Result) counts {
	a := res.Analysis
	c := counts{
		Sessions: int64(res.Sessions), Ops: int64(a.Ops), Errors: int64(a.Errors),
		BuildOps: gen.BuildOps(), UsersBuilt: int64(gen.MaterializedUsers()), WarmOps: gen.WarmOps(),
		VirtualS: res.VirtualDuration / 1e6,
	}
	links := gen.Links()
	for _, l := range links {
		c.Messages += l.Messages()
		c.Bytes += l.Bytes()
		c.NetUtil += l.Utilization()
		c.BlockedUS += l.BlockedTime()
	}
	if len(links) > 0 {
		c.NetUtil /= float64(len(links))
	}
	servers := gen.Servers()
	var wait float64
	for _, s := range servers {
		c.ServerCalls += s.Calls()
		c.ServerDataCalls += s.DataCalls()
		c.NFSDUtil += s.NFSDUtilization()
		wait += s.MeanNFSDWait() * float64(s.Calls())
		c.ServerHits += s.Cache().Hits()
		c.ServerMisses += s.Cache().Misses()
	}
	if len(servers) > 0 {
		c.NFSDUtil /= float64(len(servers))
	}
	if c.ServerCalls > 0 {
		c.NFSDWaitUS = wait / float64(c.ServerCalls)
	}
	if f := gen.Fleet(); f != nil {
		for _, isl := range f.Islands() {
			for _, cl := range isl.Pool() {
				c.ClientRPCs += cl.RPCs()
				c.ClientFlushes += cl.Flushes()
				c.ClientHits += cl.Pages().Hits()
				c.ClientMisses += cl.Pages().Misses()
			}
		}
	}
	if lc := gen.LocalCost(); lc != nil {
		c.LocalHits, c.LocalMisses = lc.Cache().Hits(), lc.Cache().Misses()
	}
	return c
}

// digest fingerprints a rep's output: the Analysis counters and per-op
// counts, the float bits of its headline statistics, and every count. Two
// reps of one seed must agree on it, on any commit that does not mean to
// change the simulation.
func digest(a *trace.Analysis, c counts) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(a.Ops))
	put(uint64(a.Errors))
	put(uint64(len(a.Sessions)))
	for _, o := range a.ByOp {
		put(uint64(o.Op))
		put(uint64(o.Count))
	}
	for _, f := range []float64{a.MeanResponsePerByte(), a.AccessSize.Mean(), a.AccessSize.Std(), a.Response.Mean(), a.Response.Std()} {
		put(math.Float64bits(f))
	}
	if err := binary.Write(h, binary.LittleEndian, c); err != nil {
		panic(err) // counts holds fixed-size fields only
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// check asserts what every correct rep satisfies whatever the seed: all
// sessions ran, no operation failed (the workloads are chosen so none
// does), the per-op counts add up, and simulated time passed.
func check(spec *config.Spec, res *core.Result) error {
	a := res.Analysis
	if res.Sessions != spec.Sessions {
		return fmt.Errorf("ran %d sessions, spec has %d", res.Sessions, spec.Sessions)
	}
	if a.Ops == 0 {
		return errors.New("no operations")
	}
	if a.Errors != 0 {
		return fmt.Errorf("%d of %d operations failed", a.Errors, a.Ops)
	}
	var n int64
	for _, o := range a.ByOp {
		n += o.Count
	}
	if n != int64(a.Ops) {
		return fmt.Errorf("per-op counts sum to %d, analysis has %d ops", n, a.Ops)
	}
	if !(res.VirtualDuration > 0) {
		return fmt.Errorf("virtual duration %v", res.VirtualDuration)
	}
	return nil
}

// rep is one measured generator run: host seconds of setup
// (core.NewGenerator) and run (Generator.Run), allocation and heap
// figures, and the simulated outcome.
type rep struct {
	seed       uint64
	setup, run float64
	mallocs    uint64
	allocBytes uint64
	heapLive   uint64
	counts     counts
	digest     string
}

// runRep runs spec once at seed. The heap is collected before the timed
// region, and the live heap is read after Run with the generator still
// reachable. Spans (when rec is non-nil) wrap setup, run and verify under a
// "rep" root. The generator is returned for callers that read its log.
func runRep(spec *config.Spec, seed uint64, rec *recorder, i int) (rep, *core.Generator, error) {
	s := *spec
	s.Seed = seed
	r := rep{seed: seed}
	root := rec.begin("rep", -1, i)
	defer rec.end(root)

	runtime.GC()
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sp := rec.begin("setup", root, i)
	t0 := now()
	gen, err := core.NewGenerator(&s)
	t1 := now()
	rec.end(sp)
	if err != nil {
		return r, nil, fmt.Errorf("setup: %w", err)
	}
	sp = rec.begin("run", root, i)
	t2 := now()
	res, err := gen.Run()
	t3 := now()
	rec.end(sp)
	if err != nil {
		return r, nil, fmt.Errorf("run: %w", err)
	}
	runtime.ReadMemStats(&m1)
	runtime.GC()
	runtime.ReadMemStats(&m2)
	runtime.KeepAlive(gen)

	sp = rec.begin("verify", root, i)
	defer rec.end(sp)
	r.setup, r.run = t1-t0, t3-t2
	r.mallocs = m1.Mallocs - m0.Mallocs
	r.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	r.heapLive = m2.HeapAlloc
	r.counts = readCounts(gen, res)
	r.digest = digest(res.Analysis, r.counts)
	if err := check(&s, res); err != nil {
		return r, gen, fmt.Errorf("seed %d: %w", seed, err)
	}
	return r, gen, nil
}
