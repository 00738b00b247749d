package usim

import (
	"testing"

	"uswg/internal/config"
	"uswg/internal/realfs"
	"uswg/internal/trace"
	"uswg/internal/vfs"
)

// TestRunWallClock runs sessions on the wall-clock runner. The runner drives
// one file system from a goroutine per user stream, and in production that
// file system is always the real one (fs.kind real), so the tests drive it
// too.
func TestRunWallClock(t *testing.T) {
	spec := config.Default()
	spec.Users = 2
	spec.Sessions = 4
	spec.SystemFiles = 20
	spec.FilesPerUser = 15
	spec.FS = config.FSSpec{Kind: config.FSReal, RealRoot: t.TempDir()}
	// Zero think time so the wall-clock run does not sleep.
	spec.UserTypes = config.ExtremelyHeavyPopulation()

	tables, err := gdsBuild(spec)
	if err != nil {
		t.Fatal(err)
	}
	fsys, err := realfs.New(spec.FS.RealRoot)
	if err != nil {
		t.Fatal(err)
	}
	inv, err := fscBuild(fsys, spec, tables)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(spec, tables, inv, fsys, &trace.Log{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := s.RunWallClock(func() vfs.Ctx { return &vfs.ManualClock{} })
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("sessions = %d, want 4", n)
	}
	a := trace.Analyze(s.Log())
	if len(a.Sessions) != 4 {
		t.Errorf("analyzed sessions = %d", len(a.Sessions))
	}
	users := make(map[int]bool)
	for _, su := range a.Sessions {
		users[su.User] = true
	}
	if len(users) != 2 {
		t.Errorf("users = %d, want 2", len(users))
	}
}

func TestRunWallClockConcurrentStreams(t *testing.T) {
	spec := config.Default()
	spec.Users = 1
	spec.Sessions = 6
	spec.SystemFiles = 20
	spec.FilesPerUser = 15
	spec.FS = config.FSSpec{Kind: config.FSReal, RealRoot: t.TempDir()}
	spec.UserTypes = config.ExtremelyHeavyPopulation()
	spec.Ext.ConcurrentSessions = 3

	tables, err := gdsBuild(spec)
	if err != nil {
		t.Fatal(err)
	}
	fsys, err := realfs.New(spec.FS.RealRoot)
	if err != nil {
		t.Fatal(err)
	}
	inv, err := fscBuild(fsys, spec, tables)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(spec, tables, inv, fsys, &trace.Log{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := s.RunWallClock(func() vfs.Ctx { return &vfs.ManualClock{} })
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Errorf("sessions = %d, want 6", n)
	}
	// All six distinct session ids appear despite three racing streams.
	seen := make(map[int]bool)
	for _, r := range s.Log().Records() {
		seen[r.Session] = true
	}
	if len(seen) != 6 {
		t.Errorf("distinct sessions logged = %d, want 6", len(seen))
	}
}
