package core

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	"uswg/internal/config"
	"uswg/internal/fault"
	"uswg/internal/trace"
	"uswg/internal/vfs"
)

// smallSpec returns a quick NFS spec for tests.
func smallSpec() *config.Spec {
	spec := config.Default()
	spec.Users = 2
	spec.Sessions = 8
	spec.SystemFiles = 30
	spec.FilesPerUser = 20
	return spec
}

func TestNewGeneratorRejectsBadSpec(t *testing.T) {
	if _, err := NewGenerator(nil); err == nil {
		t.Error("nil spec should fail")
	}
	spec := smallSpec()
	spec.Users = 0
	if _, err := NewGenerator(spec); err == nil {
		t.Error("invalid spec should fail")
	}
	spec = smallSpec()
	spec.FS = config.FSSpec{Kind: config.FSReal, RealRoot: "/does/not/exist"}
	if _, err := NewGenerator(spec); err == nil {
		t.Error("missing real root should fail")
	}
}

// TestNewGeneratorRejectsLifecycleOnRealFS: a lifecycle needs the DES
// runner, so a lifecycle spec on the real file system fails before the FSC
// writes anything under real_root.
func TestNewGeneratorRejectsLifecycleOnRealFS(t *testing.T) {
	spec := smallSpec()
	spec.Sessions = 4
	mttf := config.Exp(1e6)
	spec.UserTypes[0].Lifecycle = &config.Lifecycle{MTTF: &mttf}
	root := t.TempDir()
	spec.FS = config.FSSpec{Kind: config.FSReal, RealRoot: root}
	if _, err := NewGenerator(spec); err == nil {
		t.Error("lifecycle on the real file system should fail")
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("real_root holds %d entries after a rejected spec, want none", len(entries))
	}
}

func TestRunNFSMode(t *testing.T) {
	gen, err := NewGenerator(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(gen.Servers()) != 1 || len(gen.Links()) != 1 {
		t.Fatal("NFS mode must expose server and link")
	}
	res, err := gen.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Sessions != 8 {
		t.Errorf("sessions = %d, want 8", res.Sessions)
	}
	if len(res.Analysis.Sessions) != 8 {
		t.Errorf("analyzed sessions = %d", len(res.Analysis.Sessions))
	}
	if res.VirtualDuration <= 0 {
		t.Error("virtual duration should be positive")
	}
	if res.Analysis.Response.N() == 0 || res.Analysis.Response.Mean() <= 0 {
		t.Error("data ops should have positive response times")
	}
	m := gen.Metrics()
	if m["nfs.server_calls"] == 0 {
		t.Error("server saw no RPCs")
	}
	if m["netsim.messages"] == 0 {
		t.Error("link carried no messages")
	}
}

func TestRunLocalMode(t *testing.T) {
	spec := smallSpec()
	spec.FS = config.FSSpec{Kind: config.FSLocal}
	gen, err := NewGenerator(spec)
	if err != nil {
		t.Fatal(err)
	}
	if gen.LocalCost() == nil {
		t.Fatal("local mode must expose the local file system")
	}
	if gen.Servers() != nil {
		t.Error("local mode should not expose an NFS server")
	}
	res, err := gen.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Analysis.Response.Mean() <= 0 {
		t.Error("local mode should charge response time")
	}
}

func TestRunRealMode(t *testing.T) {
	spec := smallSpec()
	spec.Users = 1
	spec.Sessions = 2
	spec.UserTypes = config.ExtremelyHeavyPopulation() // no real sleeping
	spec.FS = config.FSSpec{Kind: config.FSReal, RealRoot: t.TempDir()}
	gen, err := NewGenerator(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gen.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Sessions != 2 {
		t.Errorf("sessions = %d", res.Sessions)
	}
	if res.VirtualDuration != 0 {
		t.Error("real mode has no virtual duration")
	}
	// Real syscalls take nonzero wall time.
	if res.Analysis.Response.N() > 0 && res.Analysis.Response.Mean() <= 0 {
		t.Error("real ops should take wall time")
	}
}

func TestRunOnlyOnce(t *testing.T) {
	gen, err := NewGenerator(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gen.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := gen.Run(); err == nil {
		t.Error("second Run should fail")
	}
}

func TestRunsAreReproducible(t *testing.T) {
	run := func() []trace.Record {
		gen, err := NewGenerator(smallSpec())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := gen.Run(); err != nil {
			t.Fatal(err)
		}
		return gen.Log().Records()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

// TestAnalysisBitIdenticalAcrossRuns runs the full generator twice from one
// seed and requires the complete Analysis — every session row, every per-op
// summary — to be identical, not merely summary statistics.
func TestAnalysisBitIdenticalAcrossRuns(t *testing.T) {
	run := func() *Result {
		spec := config.Default()
		spec.Seed = 424242
		spec.Users = 3
		spec.Sessions = 12
		spec.SystemFiles = 40
		spec.FilesPerUser = 20
		gen, err := NewGenerator(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := gen.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.VirtualDuration != b.VirtualDuration {
		t.Errorf("virtual durations differ: %v vs %v", a.VirtualDuration, b.VirtualDuration)
	}
	if !reflect.DeepEqual(a.Analysis, b.Analysis) {
		t.Error("full Analysis differs between identical-seed runs")
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	run := func(seed uint64) int {
		spec := smallSpec()
		spec.Seed = seed
		gen, err := NewGenerator(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := gen.Run(); err != nil {
			t.Fatal(err)
		}
		return gen.Log().Len()
	}
	// Different seeds should (overwhelmingly) produce different op counts.
	if run(1) == run(2) && run(3) == run(4) {
		t.Error("two independent seed pairs produced identical op counts; RNG may be ignored")
	}
}

func TestMoreUsersMoreContention(t *testing.T) {
	respPerByte := func(users int) float64 {
		spec := config.Default()
		spec.Users = users
		spec.Sessions = users * 6
		spec.SystemFiles = 30
		spec.FilesPerUser = 20
		spec.UserTypes = config.ExtremelyHeavyPopulation()
		gen, err := NewGenerator(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := gen.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Analysis.MeanResponsePerByte()
	}
	one, six := respPerByte(1), respPerByte(6)
	if six <= one {
		t.Errorf("response/byte with 6 users (%v) should exceed 1 user (%v)", six, one)
	}
}

// TestCategoryFilesMatchSessionFiles: on a default run every record carries
// a category, so the per-category fold sees every file a session
// referenced, and the categories' Files total equals the sessions'
// FilesReferenced total.
func TestCategoryFilesMatchSessionFiles(t *testing.T) {
	spec := config.Default()
	spec.Trace.Mode = config.TraceStream
	gen, err := NewGenerator(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gen.Run()
	if err != nil {
		t.Fatal(err)
	}
	var files, referenced int
	for _, c := range res.Analysis.Categories {
		files += c.Files
	}
	for _, u := range res.Analysis.Sessions {
		referenced += u.FilesReferenced
	}
	if files != referenced || files == 0 {
		t.Errorf("the categories hold %d files, the sessions reference %d", files, referenced)
	}
}

// TestStreamingMatchesLogMode is the whole-stack equivalence check: the
// same seeded spec run once with the full-record log and once with the
// streaming Summarizer must produce a bit-identical Analysis — every
// session row, every per-op summary, every ULP of every float reduction.
// Both modes fold online, so the log-mode run's Analysis is also checked
// against the after-the-run reduction of its kept records.
func TestStreamingMatchesLogMode(t *testing.T) {
	run := func(mode string) *Result {
		spec := smallSpec()
		spec.Seed = 20260729
		spec.Trace.Mode = mode
		gen, err := NewGenerator(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := gen.Run()
		if err != nil {
			t.Fatal(err)
		}
		if mode == config.TraceStream && gen.Log() != nil {
			t.Error("streaming run should not materialize a log")
		}
		if mode == config.TraceLog {
			if gen.Log() == nil {
				t.Fatal("log run lost its log")
			}
			if !reflect.DeepEqual(res.Analysis, trace.Analyze(gen.Log())) {
				t.Error("online Analysis diverges from Analyze over the kept records")
			}
		}
		return res
	}
	logged, streamed := run(config.TraceLog), run(config.TraceStream)
	if logged.VirtualDuration != streamed.VirtualDuration {
		t.Errorf("virtual durations differ: %v vs %v", logged.VirtualDuration, streamed.VirtualDuration)
	}
	if !reflect.DeepEqual(logged.Analysis, streamed.Analysis) {
		t.Errorf("streaming Analysis diverges from log-mode Analysis:\nlog:    %+v\nstream: %+v",
			logged.Analysis, streamed.Analysis)
	}
	if logged.Analysis.Availability() != streamed.Analysis.Availability() {
		t.Error("availability diverges")
	}
	apb := func(u trace.SessionUsage) float64 { return u.AccessPerByte }
	if !reflect.DeepEqual(logged.Analysis.SessionValues(apb), streamed.Analysis.SessionValues(apb)) {
		t.Error("session values diverge")
	}
}

// TestSlotFoldMatchesPathFold runs the default spec in log mode, cut to 60
// sessions so that the JSONL round trip stays quick under the race
// detector. Its records carry the simulator's file slots, and the Usage
// Analyzer indexes its per-file accumulators by them; the log's JSONL round
// trip drops the slots, so Analyze over it hashes paths instead. The
// online Analysis, the one over the kept records and the one over the
// round trip must agree bit for bit.
func TestSlotFoldMatchesPathFold(t *testing.T) {
	spec := config.Default()
	spec.Sessions = 60
	gen, err := NewGenerator(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gen.Run()
	if err != nil {
		t.Fatal(err)
	}
	unslotted := 0
	gen.Log().Each(func(r *trace.Record) {
		if r.Slot <= 0 {
			unslotted++
		}
	})
	if unslotted > 0 {
		t.Fatalf("%d of %d records carry no file slot", unslotted, gen.Log().Len())
	}
	var buf bytes.Buffer
	if err := gen.Log().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := trace.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Analysis, trace.Analyze(gen.Log())) {
		t.Error("online Analysis diverges from Analyze over the kept records")
	}
	if !reflect.DeepEqual(res.Analysis, trace.Analyze(back)) {
		t.Error("the fold by file slot diverges from the fold by path over the JSONL round trip")
	}
}

// TestStreamingFaultRunMatchesLogMode extends the equivalence to a faulted
// run: errored records (availability accounting) must fold identically,
// online and over the log-mode run's kept records.
func TestStreamingFaultRunMatchesLogMode(t *testing.T) {
	run := func(mode string) *Result {
		spec := smallSpec()
		spec.Seed = 7
		spec.Trace.Mode = mode
		spec.Fault = &fault.Plan{
			Name: "eq",
			Rules: []fault.Rule{{
				Name: "eio", Ops: []string{"read", "write"},
				Prob: 0.05, Err: fault.EIO, Latency: 500,
			}},
		}
		gen, err := NewGenerator(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := gen.Run()
		if err != nil {
			t.Fatal(err)
		}
		if mode == config.TraceLog && !reflect.DeepEqual(res.Analysis, trace.Analyze(gen.Log())) {
			t.Error("faulted online Analysis diverges from Analyze over the kept records")
		}
		return res
	}
	logged, streamed := run(config.TraceLog), run(config.TraceStream)
	if logged.Analysis.Errors == 0 {
		t.Fatal("fault plan injected no errors; equivalence check is vacuous")
	}
	if !reflect.DeepEqual(logged.Analysis, streamed.Analysis) {
		t.Error("faulted streaming Analysis diverges from log mode")
	}
}

// TestFailedReopenUnlinksTempFile: a created TEMP file is written, then
// reopened read-only to read back. When that reopen fails the file has no
// descriptor and no budget left, so the session unlinks it at once; no
// created TEMP file outlives the run.
func TestFailedReopenUnlinksTempFile(t *testing.T) {
	spec := smallSpec()
	spec.Seed = 7
	spec.Fault = &fault.Plan{Name: "reopen", Rules: []fault.Rule{{
		Name: "eio", Ops: []string{"open"}, Prob: 0.3, Err: fault.EIO,
	}}}
	gen, err := NewGenerator(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gen.Run(); err != nil {
		t.Fatal(err)
	}
	temp := func(cat int) bool { return spec.Categories[cat].Use == config.UseTemp }
	failed, unlinked := map[string]bool{}, map[string]bool{}
	for _, r := range gen.Log().Records() {
		switch {
		case !temp(r.Category):
		case r.Op == trace.OpOpen && r.Err != "":
			failed[r.Path] = true
		case r.Op == trace.OpUnlink && r.Err == "":
			unlinked[r.Path] = true
		}
	}
	if len(failed) == 0 {
		t.Fatal("no TEMP file's reopen failed; the check is vacuous")
	}
	for p := range failed {
		if !unlinked[p] {
			t.Errorf("TEMP file %s: reopen failed and no unlink followed", p)
		}
	}
	fs := vfs.Sync{FS: gen.FS()}
	for u := range spec.Users {
		for cat := range spec.Categories {
			if !temp(cat) {
				continue
			}
			dir := gen.inventory.ForUser(u, cat).Dir
			names, err := fs.ReadDir(vfs.ZeroClock{}, dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(names) != 0 {
				t.Errorf("%s holds %d created TEMP files after the run: %v", dir, len(names), names)
			}
		}
	}
}
