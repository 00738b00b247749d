package scenario

import (
	"context"
	"reflect"
	"testing"
)

// runBuiltin runs the named built-in at small scale with the given point
// fan-out.
func runBuiltin(t *testing.T, name string, parallelism int) Result {
	t.Helper()
	sc, ok := Lookup(name)
	if !ok {
		t.Fatalf("missing built-in %s", name)
	}
	opts := small
	opts.Parallelism = parallelism
	res, err := Run(context.Background(), sc, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

// requireSame fails unless a and b are identical results, structurally and
// as rendered.
func requireSame(t *testing.T, what string, a, b Result) {
	t.Helper()
	if !reflect.DeepEqual(a, b) || a.Render() != b.Render() {
		t.Errorf("%s diverges:\nfirst:\n%s\nsecond:\n%s", what, a.Render(), b.Render())
	}
}

// requireParallelismInvariant runs each named built-in at Parallelism 1 and
// 8: every point carries its own derived seed, so the results must match.
func requireParallelismInvariant(t *testing.T, names ...string) {
	t.Helper()
	for _, name := range names {
		requireSame(t, name+" across parallelism", runBuiltin(t, name, 1), runBuiltin(t, name, 8))
	}
}

// TestSweepParallelismDeterminism locks in the point fan-out's contract on
// the user and access-size sweeps.
func TestSweepParallelismDeterminism(t *testing.T) {
	requireParallelismInvariant(t, "table5.3", "fig5.6", "fig5.12")
}

// TestFaultParallelismDeterminism extends the contract to the fault5.x
// family: every grid point carries its own derived generator and
// fault-engine seeds, so injected faults — error draws, retransmissions,
// sticky onsets — replay identically at any parallelism.
func TestFaultParallelismDeterminism(t *testing.T) {
	requireParallelismInvariant(t, "fault5.1", "fault5.3", "fault5.4")
}

// TestScale51ParallelismDeterminism extends the contract to the streaming
// large-population sweep: every point carries its own seed and its own
// Summarizer, so the 1000-user streaming point renders identically at any
// parallelism.
func TestScale51ParallelismDeterminism(t *testing.T) {
	requireParallelismInvariant(t, "scale5.1")
}

// TestFaultRepeatedRunsIdentical re-runs the sticky-outage scenario with
// identical options: the sticky onset is a seeded draw, so the whole
// degraded tail must reproduce bit for bit.
func TestFaultRepeatedRunsIdentical(t *testing.T) {
	requireSame(t, "repeated fault5.4 run", runBuiltin(t, "fault5.4", 0), runBuiltin(t, "fault5.4", 0))
}

// TestSweepRepeatedRunsIdentical re-runs one sweep with identical options:
// the repeated-run determinism of the whole GDS + FSC + USIM + DES stack.
func TestSweepRepeatedRunsIdentical(t *testing.T) {
	requireSame(t, "repeated fig5.6 run", runBuiltin(t, "fig5.6", 0), runBuiltin(t, "fig5.6", 0))
}
