package main

import (
	"fmt"
	"runtime/metrics"
	"slices"
	"sort"
	"time"

	"uswg/internal/baseline"
	"uswg/internal/cache"
	"uswg/internal/config"
	"uswg/internal/disk"
	"uswg/internal/dist"
	"uswg/internal/fsc"
	"uswg/internal/gds"
	"uswg/internal/netsim"
	"uswg/internal/rng"
	"uswg/internal/sim"
	"uswg/internal/trace"
	"uswg/internal/vfs"
)

// probeBatches is how many times each probe repeats its batch; the probe
// reports the median batch.
const probeBatches = 5

// probes are the traced pass's layer timings, raw host seconds per unit of
// work. Each probe drives one layer through its public functions, from the
// benchmark's side, on inputs taken from the workload.
type probes struct {
	gds      float64 // one gds.BuildTables
	sample   float64 // one CDFTable.Sample
	fscBuild float64 // one bare fsc.Build: the part core.NewGenerator runs
	fscPerOp float64 // one build op of fsc.Build plus MaterializeUser of the records' users
	fold     float64 // one record emitted into a Summarizer stream
	append   float64 // one record appended to a Log shard
	analyze  float64 // one record through trace.Analyze
	memfs    float64 // one op replayed onto a bare MemFS
	event    float64 // one continuation of the DES kernel
	transfer float64 // one Link.Transfer
	access   float64 // one LRU.Access
	disk     float64 // one Arm.Access
}

// timed runs fn probeBatches times, each inside a span named name, and
// returns the median host seconds per unit of the work fn reports doing.
func timed(rec *recorder, name string, fn func() (int, error)) (float64, error) {
	per := make([]float64, 0, probeBatches)
	for b := 0; b < probeBatches; b++ {
		sp := rec.begin(name, -1, -1)
		t0 := now()
		n, err := fn()
		t := now() - t0
		rec.end(sp)
		if err != nil {
			return 0, fmt.Errorf("%s probe: %w", name, err)
		}
		per = append(per, t/float64(max(n, 1)))
	}
	return median(per), nil
}

// probe times every layer probe on the workload's rep-0 spec and its
// captured records; c are that rep's counts.
func (r *run) probe(recs []trace.Record, c counts, rec *recorder) (probes, error) {
	var p probes
	spec := *r.spec
	spec.Seed = repSeed(r.seed, 0)
	tables, err := gds.BuildTables(&spec)
	if err != nil {
		return p, err
	}
	users := 0
	for i := range recs {
		users = max(users, recs[i].User+1)
	}
	steps := []struct {
		name string
		dst  *float64
		fn   func() (int, error)
	}{
		{"gds.BuildTables", &p.gds, func() (int, error) {
			_, err := gds.BuildTables(&spec)
			return 1, err
		}},
		{"dist.CDFTable.Sample", &p.sample, sampleProbe(tables, spec.Seed)},
		{"fsc.Build", &p.fscBuild, func() (int, error) {
			_, _, err := bareBuild(&spec, tables)
			return 1, err
		}},
		{"trace.Summarizer.Emit", &p.fold, func() (int, error) {
			sum := trace.NewSummarizer()
			streams := make([]trace.Stream, users)
			for i := range recs {
				u := recs[i].User
				if streams[u] == nil {
					streams[u] = sum.Stream(u)
				}
				streams[u].Emit(&recs[i])
			}
			sum.Finish()
			return len(recs), nil
		}},
		{"sim.Env", &p.event, eventProbe(&spec)},
		{"netsim.Link.Transfer", &p.transfer, transferProbe(&spec, c)},
	}
	for _, s := range steps {
		if *s.dst, err = timed(rec, s.name, s.fn); err != nil {
			return p, err
		}
	}
	if p.append, p.analyze, err = logProbe(rec, recs, users); err != nil {
		return p, err
	}
	if p.fscPerOp, p.memfs, err = fscReplayProbe(rec, &spec, tables, recs); err != nil {
		return p, err
	}
	p.access, p.disk, err = blockProbes(rec, &spec, recs)
	return p, err
}

// sampleProbe draws round-robin from every table of the workload's TableSet.
func sampleProbe(ts *gds.TableSet, seed uint64) func() (int, error) {
	tabs := []*dist.CDFTable{ts.AccessSize}
	names := make([]string, 0, len(ts.ThinkTime))
	for name := range ts.ThinkTime {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		tabs = append(tabs, ts.ThinkTime[name])
	}
	tabs = append(tabs, ts.FileSize...)
	tabs = append(tabs, ts.AccessPerByte...)
	tabs = append(tabs, ts.FilesAccessed...)
	src := rng.Derive(seed, "wlbench.sample")
	const n = 1 << 20
	return func() (int, error) {
		for i := 0; i < n; i++ {
			tabs[i%len(tabs)].Sample(src)
		}
		return n, nil
	}
}

// probeProcs is the probes' process count: as many as the workload runs
// session streams at once, at most.
func probeProcs(spec *config.Spec) int { return max(1, min(spec.Users, spec.Sessions)) }

// probeSteps sizes the DES probes: about this many loop iterations in all.
const probeSteps = 100_000

// eventProbe runs closed-loop processes that acquire an nfsd-sized resource,
// hold 1 ms for service, release and hold 2 ms for think, at the workload's
// concurrency; the unit is one continuation run by the kernel.
func eventProbe(spec *config.Spec) func() (int, error) {
	procs := probeProcs(spec)
	nfsds := max(1, spec.FS.ResolveTopology().Server.NFSDs)
	iters := max(1, probeSteps/procs)
	return func() (int, error) {
		env := sim.NewEnv()
		res := sim.NewResource(env, nfsds)
		events := 0
		for i := 0; i < procs; i++ {
			left := iters
			env.Start("probe", func(p *sim.Proc, done sim.K) {
				var loop, acquired, served, thought func()
				acquired = func() { events++; p.Hold(1000, served) }
				served = func() { events++; res.Release(); p.Hold(2000, thought) }
				thought = func() { events++; loop() }
				loop = func() {
					if left == 0 {
						done()
						return
					}
					left--
					res.Acquire(p, acquired)
				}
				loop()
			})
		}
		err := env.Run(sim.Forever)
		return events, err
	}
}

// transferProbe sends the workload's mean message over a fresh link from
// as many processes as the workload has streams; the unit is one transfer.
func transferProbe(spec *config.Spec, c counts) func() (int, error) {
	procs := probeProcs(spec)
	iters := max(1, probeSteps/procs)
	size := int64(1024)
	if c.Messages > 0 {
		size = c.Bytes / c.Messages
	}
	cfg := spec.FS.ResolveTopology().Client.Net
	return func() (int, error) {
		env := sim.NewEnv()
		link := netsim.NewLink(env, cfg)
		for i := 0; i < procs; i++ {
			left := iters
			env.Start("probe", func(p *sim.Proc, done sim.K) {
				var next func()
				next = func() {
					if left == 0 {
						done()
						return
					}
					left--
					link.Transfer(p, size, next)
				}
				next()
			})
		}
		err := env.Run(sim.Forever)
		return procs * iters, err
	}
}

// logProbe appends the records to a fresh Log through per-user shards, then
// analyzes the log; both units are one record.
func logProbe(rec *recorder, recs []trace.Record, users int) (appendS, analyzeS float64, err error) {
	var log *trace.Log
	appendS, err = timed(rec, "trace.Shard.Append", func() (int, error) {
		log = &trace.Log{}
		log.Reserve(users)
		shards := make([]*trace.Shard, users)
		for i := range recs {
			u := recs[i].User
			if shards[u] == nil {
				shards[u] = log.Shard(u)
			}
			shards[u].Append(recs[i])
		}
		return len(recs), nil
	})
	if err != nil {
		return 0, 0, err
	}
	analyzeS, err = timed(rec, "trace.Analyze", func() (int, error) {
		trace.Analyze(log)
		return len(recs), nil
	})
	return appendS, analyzeS, err
}

// bareBuild creates the workload's initial file system the way
// core.NewGenerator does, from the same rng stream, but on a bare MemFS with
// no cost model and an uncharged clock.
func bareBuild(spec *config.Spec, tables *gds.TableSet) (*vfs.MemFS, *fsc.Inventory, error) {
	fs := vfs.NewMemFS(vfs.WithMaxFDs(1 << 20))
	inv, err := fsc.Build(&vfs.ManualClock{}, fs, spec, tables, rng.Derive(spec.Seed, "fsc"))
	return fs, inv, err
}

// fscReplayProbe builds the initial file system on a bare, uncharged MemFS
// and materializes the users the records name (lazy workloads), then
// replays the records onto a built copy in start order. It returns seconds
// per build op and per replayed op.
func fscReplayProbe(rec *recorder, spec *config.Spec, tables *gds.TableSet, recs []trace.Record) (perOp, perReplay float64, err error) {
	users := make([]int, len(recs))
	for i := range recs {
		users[i] = recs[i].User
	}
	slices.Sort(users)
	users = slices.Compact(users)
	ordered := append([]trace.Record(nil), recs...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Start < ordered[j].Start })

	var built []*vfs.MemFS
	perOp, err = timed(rec, "fsc.Build+MaterializeUser", func() (int, error) {
		fs, inv, err := bareBuild(spec, tables)
		if err != nil {
			return 0, err
		}
		for _, u := range users {
			if err := inv.MaterializeUser(u); err != nil {
				return 0, err
			}
		}
		built = append(built, fs)
		return int(inv.BuildOps), nil
	})
	if err != nil {
		return 0, 0, err
	}
	perReplay, err = timed(rec, "baseline.Replay", func() (int, error) {
		fs := built[0]
		built = built[1:]
		return baseline.Replay(&vfs.ManualClock{}, fs, ordered, &trace.Log{})
	})
	return perOp, perReplay, err
}

// blockProbes derives the block stream of the records' data ops (sequential
// offsets per open file) and time the workload's cache at its capacity and
// its disk arm on it; units are one LRU.Access and one Arm.Access.
func blockProbes(rec *recorder, spec *config.Spec, recs []trace.Record) (accessS, diskS float64, err error) {
	capacity, model := blockLayer(spec)
	type op struct{ base, off, n int64 }
	var ops []op
	var blocks []cache.BlockID
	ids := make(map[string]int64)
	offs := make(map[string]int64)
	for i := range recs {
		r := &recs[i]
		id, ok := ids[r.Path]
		if !ok {
			id = int64(len(ids))
			ids[r.Path] = id
		}
		switch {
		case r.Op == trace.OpOpen || r.Op == trace.OpCreate || r.Op == trace.OpSeek:
			offs[r.Path] = 0
		case r.Op.IsData() && r.Bytes > 0:
			off := offs[r.Path]
			offs[r.Path] = off + r.Bytes
			ops = append(ops, op{base: id << 20, off: off, n: r.Bytes})
			for b := off / model.BlockSize; b <= (off+r.Bytes-1)/model.BlockSize; b++ {
				blocks = append(blocks, cache.BlockID{File: uint64(id), Block: b})
			}
		}
	}
	accessS, err = timed(rec, "cache.LRU.Access", func() (int, error) {
		lru := cache.NewLRU(capacity)
		for _, id := range blocks {
			lru.Access(id)
		}
		return len(blocks), nil
	})
	if err != nil {
		return 0, 0, err
	}
	diskS, err = timed(rec, "disk.Arm.Access", func() (int, error) {
		arm := disk.NewArm(model)
		for _, o := range ops {
			arm.Access(o.base, o.off, o.n)
		}
		return len(ops), nil
	})
	return accessS, diskS, err
}

// blockLayer returns the capacity of the cache that shields the workload's
// disk, and the disk: the buffer cache of the local file system (with
// core's default when the spec leaves it unset) or the NFS server's.
func blockLayer(spec *config.Spec) (int, disk.Model) {
	if spec.FS.Kind == config.FSLocal {
		cfg := spec.FS.Local
		if cfg.Disk.BlockSize == 0 {
			cfg = vfs.DefaultLocalCostConfig()
		}
		return cfg.CacheBlocks, cfg.Disk
	}
	srv := spec.FS.ResolveTopology().Server
	return srv.CacheBlocks, srv.Disk
}

// heapSampler reads the live heap-object bytes on a 1 ms ticker, from its
// own goroutine, and keeps the peak. With one P it runs when the scheduler
// preempts the rep, so samples are some milliseconds apart.
type heapSampler struct {
	stopc, done chan struct{}
	peak        uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends the sampler, waits for its goroutine and returns the peak.
func (h *heapSampler) stop() uint64 {
	close(h.stopc)
	<-h.done
	return h.peak
}

// layers turns the traced reps and the probes into the per-layer series,
// in the order of the perLayer table. Host values are calibrated by the
// pass's median kernel time; counts and sim values have one sample per
// traced rep.
func (r *run) layers(traced []rep, p probes, overhead, peaks []float64) {
	f := r.ref.C0 / median(r.out.Kernel)
	vals := make(map[string][]float64)
	one := func(name string, v float64) { vals[name] = []float64{v} }
	each := func(name string, v float64) { vals[name] = append(vals[name], v) }
	ratio := func(hits, misses int64) float64 {
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	}
	one("gds.build_ms", p.gds*f*1e3)
	one("dist.sample_ns", p.sample*f*1e9)
	one("fsc.build_ns_per_op", p.fscPerOp*f*1e9)
	one("trace.fold_ns", p.fold*f*1e9)
	one("trace.append_ns", p.append*f*1e9)
	one("trace.analyze_ns", p.analyze*f*1e9)
	one("vfs.memfs_ns", p.memfs*f*1e9)
	one("sim.event_ns", p.event*f*1e9)
	one("netsim.transfer_ns", p.transfer*f*1e9)
	one("cache.access_ns", p.access*f*1e9)
	one("disk.access_ns", p.disk*f*1e9)
	sink := p.fold
	if !r.spec.Trace.Streaming() {
		sink = p.append + p.analyze
	}
	var setups []float64
	for _, t := range traced {
		c := t.counts
		setups = append(setups, t.setup)
		each("fsc.build_ops", float64(c.BuildOps))
		each("fsc.users_built", float64(c.UsersBuilt))
		each("core.warm_ops", float64(c.WarmOps))
		each("usim.sessions", float64(c.Sessions))
		each("usim.ops", float64(c.Ops))
		each("usim.errors", float64(c.Errors))
		each("vfs.local_hit_ratio", ratio(c.LocalHits, c.LocalMisses))
		each("sim.virtual_s", c.VirtualS)
		each("netsim.messages", float64(c.Messages))
		each("netsim.bytes", float64(c.Bytes))
		each("netsim.util", c.NetUtil)
		each("netsim.blocked_us", c.BlockedUS)
		each("nfs.server_calls", float64(c.ServerCalls))
		each("nfs.server_data_calls", float64(c.ServerDataCalls))
		each("nfs.nfsd_util", c.NFSDUtil)
		each("nfs.nfsd_wait_us", c.NFSDWaitUS)
		each("nfs.client_rpcs", float64(c.ClientRPCs))
		each("nfs.client_flushes", float64(c.ClientFlushes))
		each("cache.server_hit_ratio", ratio(c.ServerHits, c.ServerMisses))
		each("cache.client_hit_ratio", ratio(c.ClientHits, c.ClientMisses))
		accesses := c.ServerHits + c.ServerMisses + c.ClientHits + c.ClientMisses + c.LocalHits + c.LocalMisses
		explained := float64(c.Ops)*(sink+p.memfs) + float64(c.Messages)*p.transfer + float64(accesses)*p.access
		each("attrib.explained_share", explained/t.run)
	}
	one("core.setup_other_ms", (median(setups)-p.gds-p.fscBuild)*f*1e3)
	vals["mem.heap_peak_mb"] = peaks
	vals["trace.span_overhead"] = overhead
	for _, m := range perLayer {
		r.out.Metrics = append(r.out.Metrics, series{Name: m.name, Unit: m.unit, Samples: vals[m.name]})
	}
}
