package baseline

import (
	"testing"

	"uswg/internal/trace"
	"uswg/internal/vfs"
)

func TestScriptConfigValidate(t *testing.T) {
	if err := DefaultScriptConfig().Validate(); err != nil {
		t.Errorf("default invalid: %v", err)
	}
	bad := DefaultScriptConfig()
	bad.Dirs = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero dirs should fail")
	}
}

func TestScriptPhases(t *testing.T) {
	fs := vfs.NewMemFS(vfs.WithMaxFDs(1 << 16))
	ctx := &vfs.ManualClock{}
	var log trace.Log
	cfg := ScriptConfig{Dirs: 3, FilesPerDir: 2, FileSize: 10000, Chunk: 4096}
	if err := Script(ctx, fs, "/bench", cfg, &log, 1); err != nil {
		t.Fatal(err)
	}

	counts := make(map[trace.Op]int)
	for _, r := range log.Records() {
		if r.Err != "" {
			t.Fatalf("op failed: %+v", r)
		}
		counts[r.Op]++
	}
	if counts[trace.OpMkdir] != 4 { // root + 3 phase-1 directories
		t.Errorf("mkdirs = %d, want 4", counts[trace.OpMkdir])
	}
	if counts[trace.OpCreate] != 3*2+3 { // copy files + make outputs
		t.Errorf("creates = %d, want 9", counts[trace.OpCreate])
	}
	if counts[trace.OpReadDir] != 3 {
		t.Errorf("readdirs = %d, want 3", counts[trace.OpReadDir])
	}
	if counts[trace.OpStat] != 6 {
		t.Errorf("stats = %d, want 6", counts[trace.OpStat])
	}
	// readAll opens 6 files; make re-reads 3.
	if counts[trace.OpOpen] != 9 {
		t.Errorf("opens = %d, want 9", counts[trace.OpOpen])
	}
	if counts[trace.OpRead] == 0 || counts[trace.OpWrite] == 0 {
		t.Error("missing data ops")
	}

	// Files really exist with the configured size.
	info, err := (&vfs.Sync{FS: fs}).Stat(ctx, "/bench/d0/f0")
	if err != nil || info.Size != 10000 {
		t.Errorf("copied file: %+v, %v", info, err)
	}
	if _, err := (&vfs.Sync{FS: fs}).Stat(ctx, "/bench/obj2"); err != nil {
		t.Errorf("make output missing: %v", err)
	}
}

func TestScriptIsDeterministic(t *testing.T) {
	run := func() []trace.Record {
		fs := vfs.NewMemFS(vfs.WithMaxFDs(1 << 16))
		var log trace.Log
		if err := Script(&vfs.ManualClock{}, fs, "/b", ScriptConfig{Dirs: 2, FilesPerDir: 2, FileSize: 5000, Chunk: 2048}, &log, 0); err != nil {
			t.Fatal(err)
		}
		return log.Records()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestScriptBytesReadEqualBytesWritten(t *testing.T) {
	fs := vfs.NewMemFS(vfs.WithMaxFDs(1 << 16))
	var log trace.Log
	cfg := ScriptConfig{Dirs: 2, FilesPerDir: 3, FileSize: 8000, Chunk: 4096}
	if err := Script(&vfs.ManualClock{}, fs, "/b", cfg, &log, 0); err != nil {
		t.Fatal(err)
	}
	var read, copied int64
	for _, r := range log.Records() {
		switch r.Op {
		case trace.OpRead:
			read += r.Bytes
		}
	}
	copied = int64(cfg.Dirs) * int64(cfg.FilesPerDir) * cfg.FileSize
	// readAll reads everything once; make re-reads one file per dir.
	want := copied + int64(cfg.Dirs)*cfg.FileSize
	if read != want {
		t.Errorf("bytes read = %d, want %d", read, want)
	}
}

func TestReplayReproducesOps(t *testing.T) {
	// Record a small session...
	src := vfs.NewMemFS()
	var orig trace.Log
	cfg := ScriptConfig{Dirs: 2, FilesPerDir: 1, FileSize: 4096, Chunk: 4096}
	if err := Script(&vfs.ManualClock{}, src, "/b", cfg, &orig, 7); err != nil {
		t.Fatal(err)
	}
	// ...and replay it on a fresh file system.
	dst := vfs.NewMemFS()
	var out trace.Log
	ctx := &vfs.ManualClock{}
	n, err := Replay(ctx, dst, orig.Records(), &out)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("nothing replayed")
	}
	for _, r := range out.Records() {
		if r.Err != "" {
			t.Fatalf("replayed op failed: %+v", r)
		}
		if r.UserType != "replay" {
			t.Fatalf("user type = %q", r.UserType)
		}
	}
	// The replay must reconstruct the same files.
	info, err := (&vfs.Sync{FS: dst}).Stat(&vfs.ManualClock{}, "/b/d1/f0")
	if err != nil || info.Size != 4096 {
		t.Errorf("replayed file: %+v, %v", info, err)
	}
}

func TestReplayPreservesGaps(t *testing.T) {
	records := []trace.Record{
		{Op: trace.OpMkdir, Path: "/d", Start: 0},
		{Op: trace.OpCreate, Path: "/d/f", Start: 1000},
		{Op: trace.OpWrite, Path: "/d/f", Bytes: 100, Start: 3000},
		{Op: trace.OpClose, Path: "/d/f", Start: 6000},
	}
	fs := vfs.NewMemFS()
	ctx := &vfs.ManualClock{}
	if _, err := Replay(ctx, fs, records, nil); err != nil {
		t.Fatal(err)
	}
	// Gaps 1000 + 2000 + 3000 = 6000 µs of holds (ops themselves are free
	// on a cost-less MemFS).
	if ctx.Now() != 6000 {
		t.Errorf("replay clock = %v, want 6000", ctx.Now())
	}
}

func TestReplaySkipsFailedAndOrphanOps(t *testing.T) {
	records := []trace.Record{
		{Op: trace.OpOpen, Path: "/nope", Err: "vfs: no such file or directory"},
		{Op: trace.OpRead, Path: "/orphan", Bytes: 10}, // no open in slice
		{Op: trace.OpMkdir, Path: "/d"},
	}
	fs := vfs.NewMemFS()
	var out trace.Log
	n, err := Replay(&vfs.ManualClock{}, fs, records, &out)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("replayed %d ops, want 1 (mkdir only)", n)
	}
}

func TestReplayClosesLeakedFDs(t *testing.T) {
	records := []trace.Record{
		{Op: trace.OpCreate, Path: "/f", Start: 0},
		{Op: trace.OpWrite, Path: "/f", Bytes: 10, Start: 1},
		// no close
	}
	fs := vfs.NewMemFS()
	if _, err := Replay(&vfs.ManualClock{}, fs, records, nil); err != nil {
		t.Fatal(err)
	}
	if fs.OpenFDs() != 0 {
		t.Errorf("replay leaked %d descriptors", fs.OpenFDs())
	}
}

// TestReplayInterleavedSessions replays two sessions that open one file
// and read it in interleaved order: each read goes through its own
// session's descriptor, both closes replay, and no descriptor stays open.
func TestReplayInterleavedSessions(t *testing.T) {
	fs := vfs.NewMemFS()
	ctx := &vfs.ManualClock{}
	sfs := vfs.Sync{FS: fs}
	if err := sfs.Mkdir(ctx, "/sys"); err != nil {
		t.Fatal(err)
	}
	fd, err := sfs.Create(ctx, "/sys/f")
	if err == nil {
		_, err = sfs.Write(ctx, fd, 100)
	}
	if err == nil {
		err = sfs.Close(ctx, fd)
	}
	if err != nil {
		t.Fatal(err)
	}
	records := []trace.Record{
		{Session: 1, Op: trace.OpOpen, Path: "/sys/f", Start: 0},
		{Session: 2, Op: trace.OpOpen, Path: "/sys/f", Start: 1},
		{Session: 1, Op: trace.OpRead, Path: "/sys/f", Bytes: 60, Start: 2},
		{Session: 2, Op: trace.OpRead, Path: "/sys/f", Bytes: 60, Start: 3},
		{Session: 1, Op: trace.OpClose, Path: "/sys/f", Start: 4},
		{Session: 2, Op: trace.OpClose, Path: "/sys/f", Start: 5},
	}
	var out trace.Log
	n, err := Replay(ctx, fs, records, &out)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(records) {
		t.Errorf("replayed %d of %d records", n, len(records))
	}
	for _, r := range out.Records() {
		if r.Err != "" {
			t.Errorf("session %d %s failed: %s", r.Session, r.Op, r.Err)
		}
		if r.Op == trace.OpRead && r.Bytes != 60 {
			t.Errorf("session %d read %d bytes, want 60", r.Session, r.Bytes)
		}
	}
	if fs.OpenFDs() != 0 {
		t.Errorf("replay left %d descriptors open", fs.OpenFDs())
	}
}
