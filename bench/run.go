package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"uswg/internal/config"
	"uswg/internal/trace"
)

const (
	// defaultSeed is the seed whose rep-0 digests expected.json records.
	defaultSeed = 1991
	// minReps is the fewest measured reps (traced pairs) a pass makes,
	// whatever its time budget.
	minReps = 3
	// noisyKernel is the kernel spread (IQR over median) above which a
	// result is marked noisy.
	noisyKernel = 0.15
	// maxProbeRecords caps the records the traced pass captures for its
	// probes, bounding the probes' time and memory on the large workloads.
	maxProbeRecords = 200_000
)

// reference is the benchmark's frozen data, expected.json.
type reference struct {
	// C0 is the calibration kernel's reference time, host seconds.
	C0 float64 `json:"c0_s"`
	// Digests maps each workload to the digest of its rep 0 at defaultSeed.
	Digests map[string]string `json:"digests"`
}

// series is one metric's samples from one pass over one workload.
type series struct {
	Name    string    `json:"name"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples"`
}

// outcome is one pass over one workload, as printed and as -out stores it.
type outcome struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Traced   bool   `json:"traced"`
	// Attempted counts every generator run the pass made (warm-up,
	// measured and capture reps); Failed those that errored, broke an
	// invariant or did not repeat the digest they had to.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	// Digests holds the digest of each measured rep, in rep order.
	Digests []string `json:"digests"`
	// Kernel holds the calibration kernel timings, host seconds.
	Kernel  []float64 `json:"kernel_s"`
	Noisy   bool      `json:"noisy"`
	Metrics []series  `json:"metrics"`
}

// add appends one sample to the named series, creating it on first use.
func (o *outcome) add(name, unit string, v float64) {
	for i := range o.Metrics {
		if o.Metrics[i].Name == name {
			o.Metrics[i].Samples = append(o.Metrics[i].Samples, v)
			return
		}
	}
	o.Metrics = append(o.Metrics, series{Name: name, Unit: unit, Samples: []float64{v}})
}

// run is the state of one pass over one workload.
type run struct {
	ref  *reference
	name string
	spec *config.Spec
	seed uint64
	out  *outcome
	// kernel is the latest kernel timing: the left side of the next rep.
	kernel float64
	// warm is the warm-up rep's digest, which rep 0 must repeat.
	warm string
}

// fail counts a failed generator run and keeps its first problems.
func (r *run) fail(err error) {
	r.out.Failed++
	if len(r.out.Problems) < 10 {
		r.out.Problems = append(r.out.Problems, err.Error())
	}
}

// calibrate times the kernel and returns the mean of this and the previous
// timing: the host speed across the rep between them.
func (r *run) calibrate() (float64, error) {
	k, err := timeKernel()
	if err != nil {
		return 0, err
	}
	r.out.Kernel = append(r.out.Kernel, k)
	c := (r.kernel + k) / 2
	r.kernel = k
	return c, nil
}

// measure runs rep i, then the kernel, and returns the rep with its
// calibration factor c0/c. ok is false when the rep failed, in which case
// its numbers are not used. Rep 0 must repeat the warm-up's digest and, at
// the default seed, the expected one. An untraced rep's digest is kept.
func (r *run) measure(i int, rec *recorder) (rp rep, f float64, ok bool, err error) {
	r.out.Attempted++
	rp, _, rerr := runRep(r.spec, repSeed(r.seed, i), rec, i)
	c, err := r.calibrate()
	if err != nil {
		return rp, 0, false, err
	}
	if rec == nil {
		r.out.Digests = append(r.out.Digests, rp.digest)
	}
	if rerr == nil && i == 0 {
		rerr = r.verifyRep0(rp.digest)
	}
	if rerr != nil {
		r.fail(rerr)
		return rp, 0, false, nil
	}
	return rp, r.ref.C0 / c, true, nil
}

// verifyRep0 checks rep 0's digest against the warm-up and, at the default
// seed, against expected.json.
func (r *run) verifyRep0(d string) error {
	if d != r.warm {
		return fmt.Errorf("rep 0 digest %s differs from the warm-up's %s: the simulation is not deterministic", d, r.warm)
	}
	if want := r.ref.Digests[r.name]; r.seed == defaultSeed && d != want {
		return fmt.Errorf("rep 0 digest %s at seed %d, expected.json has %s", d, r.seed, want)
	}
	return nil
}

// options select a pass.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	// spans is the directory the traced pass writes its spans to ("" for
	// none).
	spans string
}

// runWorkload makes one pass over a workload: kernel warm-up, one untimed
// warm-up rep at rep 0's seed, then the end-to-end or the traced pass.
func runWorkload(ref *reference, name string, spec *config.Spec, o options) (*outcome, error) {
	r := &run{ref: ref, name: name, spec: spec, seed: o.seed,
		out: &outcome{Workload: name, Seed: o.seed, Traced: o.trace}}
	for k := 0; k < 2; k++ {
		if _, err := r.calibrate(); err != nil {
			return nil, err
		}
	}
	r.out.Kernel = r.out.Kernel[:0]
	r.out.Attempted++
	warm, _, err := runRep(spec, repSeed(o.seed, 0), nil, -1)
	if err != nil {
		r.fail(fmt.Errorf("warm-up: %w", err))
	}
	r.warm = warm.digest
	if _, err := r.calibrate(); err != nil {
		return nil, err
	}
	if o.trace {
		err = r.tracedPass(o)
	} else {
		err = r.endToEndPass(o.seconds)
	}
	if err != nil {
		return nil, err
	}
	r.out.Noisy = spread(r.out.Kernel) > noisyKernel
	return r.out, nil
}

// endToEndPass measures reps back to back until the time budget is spent.
// Each rep simulates its own seed, so the medians average over inputs as
// well as over host noise.
func (r *run) endToEndPass(seconds float64) error {
	start := now()
	for i := 0; i < minReps || now()-start < seconds; i++ {
		rp, f, ok, err := r.measure(i, nil)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		ops := float64(rp.counts.Ops)
		r.out.add("ops_per_s", "ops/s", ops/(rp.run*f))
		r.out.add("wall_s", "s", (rp.setup+rp.run)*f)
		r.out.add("setup_s", "s", rp.setup*f)
		r.out.add("allocs_per_op", "allocs/op", float64(rp.mallocs)/ops)
		r.out.add("alloc_bytes_per_op", "B/op", float64(rp.allocBytes)/ops)
		r.out.add("heap_live_mb", "MB", float64(rp.heapLive)/1e6)
		r.out.add("ops_per_s"+rawSuffix, "ops/s", ops/rp.run)
		r.out.add("wall_s"+rawSuffix, "s", rp.setup+rp.run)
		r.out.add("setup_s"+rawSuffix, "s", rp.setup)
	}
	return nil
}

// tracedPass measures pairs of reps on one seed, untraced then traced with
// spans and the heap sampler on, for half the time budget; then it captures
// one rep's records and times each layer's probe on them.
func (r *run) tracedPass(o options) error {
	rec := &recorder{workload: r.name}
	start := now()
	var traced []rep
	var overhead, peaks []float64
	for i := 0; i < minReps || now()-start < o.seconds/2; i++ {
		u, fu, ok, err := r.measure(i, nil)
		if err != nil {
			return err
		}
		h := startHeapSampler()
		t, ft, tok, err := r.measure(i, rec)
		peak := h.stop()
		if err != nil {
			return err
		}
		if !ok || !tok {
			continue
		}
		if t.digest != u.digest {
			r.fail(fmt.Errorf("seed %d: traced digest %s differs from untraced %s", t.seed, t.digest, u.digest))
			continue
		}
		traced = append(traced, t)
		overhead = append(overhead, (t.run*ft)/(u.run*fu)-1)
		peaks = append(peaks, float64(peak)/1e6)
	}
	if len(traced) == 0 {
		return nil
	}
	recs, err := r.capture()
	if err != nil {
		r.fail(err)
		return nil
	}
	p, err := r.probe(recs, traced[0].counts, rec)
	if err != nil {
		return err
	}
	r.layers(traced, p, overhead, peaks)
	if o.spans == "" {
		return nil
	}
	return writeSpans(filepath.Join(o.spans, r.name+".spans.json"), rec.spans)
}

// capture reruns rep 0 with the full-record log sink and returns up to
// maxProbeRecords of its records in insertion order. The sink changes
// nothing simulated, so the capture must repeat the warm-up's digest.
func (r *run) capture() ([]trace.Record, error) {
	s := *r.spec
	s.Trace.Mode = config.TraceLog
	r.out.Attempted++
	rp, gen, err := runRep(&s, repSeed(r.seed, 0), nil, -1)
	if err != nil {
		return nil, fmt.Errorf("capture: %w", err)
	}
	if rp.digest != r.warm {
		return nil, fmt.Errorf("capture digest %s differs from the stream rep's %s", rp.digest, r.warm)
	}
	recs := make([]trace.Record, 0, min(maxProbeRecords, int(rp.counts.Ops)))
	gen.Log().Each(func(rec *trace.Record) {
		if len(recs) < cap(recs) {
			recs = append(recs, *rec)
		}
	})
	return recs, nil
}

// writeSpans stores the traced pass's spans as one JSON array.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
