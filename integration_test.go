package uswg

import (
	"bytes"
	"testing"

	"uswg/internal/baseline"
	"uswg/internal/config"
	"uswg/internal/core"
	"uswg/internal/trace"
	"uswg/internal/validate"
	"uswg/internal/vfs"
)

// smallNFS returns a fast NFS-mode spec.
func smallNFS(seed uint64) *config.Spec {
	spec := config.Default()
	spec.Seed = seed
	spec.Users = 2
	spec.Sessions = 12
	spec.SystemFiles = 30
	spec.FilesPerUser = 25
	return spec
}

// TestPipelineEndToEnd exercises GDS -> FSC -> USIM -> Usage Analyzer ->
// statistical validation as one flow, the complete Figure 4.1 block diagram.
func TestPipelineEndToEnd(t *testing.T) {
	spec := smallNFS(42)
	gen, err := core.NewGenerator(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gen.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Sessions != spec.Sessions {
		t.Fatalf("sessions = %d", res.Sessions)
	}

	// The log round-trips through JSONL (the "usage log file").
	var buf bytes.Buffer
	if err := gen.Log().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := trace.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != gen.Log().Len() {
		t.Fatalf("round trip %d != %d", back.Len(), gen.Log().Len())
	}

	// Statistical similarity: the non-advisory checks must accept.
	rep, err := validate.Workload(spec, back)
	if err != nil {
		t.Fatal(err)
	}
	if failed := rep.Failed(0.001); len(failed) > 0 {
		t.Errorf("validation rejected: %+v", failed)
	}
}

// TestReplayedWorkloadMatchesOriginal replays a generated usage log (the
// trace-data baseline) and confirms the operation mix survives the replay.
func TestReplayedWorkloadMatchesOriginal(t *testing.T) {
	spec := smallNFS(7)
	spec.FS = config.FSSpec{Kind: config.FSLocal}
	gen, err := core.NewGenerator(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gen.Run(); err != nil {
		t.Fatal(err)
	}
	orig := gen.Log().Records()

	// The trace references the FSC-created namespace, so the replay target
	// must be initialized the same way: a second generator with the same
	// spec and seed rebuilds an identical initial file system.
	spec2 := smallNFS(7)
	spec2.FS = config.FSSpec{Kind: config.FSLocal}
	gen2, err := core.NewGenerator(spec2)
	if err != nil {
		t.Fatal(err)
	}
	fresh := gen2.FS()
	var replayed trace.Log
	n, err := baseline.Replay(&vfs.ManualClock{}, fresh, orig, &replayed)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("nothing replayed")
	}
	// Data volume must be preserved for successfully replayed data ops.
	var origBytes, replayBytes int64
	for _, r := range orig {
		if r.Op.IsData() && r.Err == "" {
			origBytes += r.Bytes
		}
	}
	for _, r := range replayed.Records() {
		if r.Op.IsData() && r.Err == "" {
			replayBytes += r.Bytes
		}
	}
	if replayBytes == 0 || replayBytes > origBytes {
		t.Errorf("replayed %d bytes of %d", replayBytes, origBytes)
	}
	ratio := float64(replayBytes) / float64(origBytes)
	if ratio < 0.9 {
		t.Errorf("replay lost %.0f%% of the data volume", 100*(1-ratio))
	}
}

// TestBenchmarkVsSyntheticDiversity contrasts the Andrew-style script with
// the user-oriented generator: the script performs the identical operation
// mix every run, while the synthetic workload varies by seed — the thesis's
// core argument for distribution-driven generation (§2.1).
func TestBenchmarkVsSyntheticDiversity(t *testing.T) {
	scriptMix := func() map[trace.Op]int {
		fs := vfs.NewMemFS(vfs.WithMaxFDs(1 << 16))
		var log trace.Log
		if err := baseline.Script(&vfs.ManualClock{}, fs, "/b", baseline.ScriptConfig{Dirs: 10, FilesPerDir: 7, FileSize: 16 << 10, Chunk: 4096}, &log, 0); err != nil {
			t.Fatal(err)
		}
		mix := make(map[trace.Op]int)
		for _, r := range log.Records() {
			mix[r.Op]++
		}
		return mix
	}
	a, b := scriptMix(), scriptMix()
	for op, n := range a {
		if b[op] != n {
			t.Errorf("benchmark mix differs across runs: %s %d vs %d", op, n, b[op])
		}
	}

	synthMix := func(seed uint64) int {
		spec := smallNFS(seed)
		spec.FS = config.FSSpec{Kind: config.FSLocal}
		gen, err := core.NewGenerator(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := gen.Run(); err != nil {
			t.Fatal(err)
		}
		return gen.Log().Len()
	}
	if synthMix(1) == synthMix(2) {
		t.Log("two seeds produced equal op counts (possible but unlikely); not failing on one coincidence")
	}
}

// TestExtensionsThroughCore runs every §6.2 extension through the public
// facade to confirm they compose.
func TestExtensionsThroughCore(t *testing.T) {
	spec := smallNFS(99)
	spec.Ext = config.Extensions{
		Locality:           0.5,
		ThinkFactors:       []float64{0.5, 2},
		ThinkPeriod:        5e6,
		ConcurrentSessions: 2,
	}
	spec.Categories[2].Access = config.AccessRandom
	gen, err := core.NewGenerator(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gen.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Sessions != spec.Sessions {
		t.Errorf("sessions = %d", res.Sessions)
	}
	if res.Analysis.Errors > 0 {
		t.Errorf("extension run produced %d errored ops", res.Analysis.Errors)
	}
}

// TestSpecFileDrivesRun saves a spec, loads it back, and runs it — the
// wlgen CLI's path.
func TestSpecFileDrivesRun(t *testing.T) {
	dir := t.TempDir()
	spec := smallNFS(5)
	path := dir + "/spec.json"
	if err := spec.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := config.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := core.NewGenerator(loaded)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gen.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Sessions != spec.Sessions {
		t.Errorf("sessions = %d", res.Sessions)
	}
}

// TestFDsNeverLeak runs a workload and confirms every descriptor opened by
// the USIM is closed by logout.
func TestFDsNeverLeak(t *testing.T) {
	spec := smallNFS(11)
	gen, err := core.NewGenerator(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gen.Run(); err != nil {
		t.Fatal(err)
	}
	var balance int
	for _, r := range gen.Log().Records() {
		if r.Err != "" {
			continue
		}
		switch r.Op {
		case trace.OpOpen, trace.OpCreate:
			balance++
		case trace.OpClose:
			balance--
		}
	}
	if balance != 0 {
		t.Errorf("open/close imbalance: %d", balance)
	}
}
