package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"uswg/internal/config"
	"uswg/internal/fault"
	"uswg/internal/netsim"
	"uswg/internal/nfs"
)

// islandReads is what island i's server and link report through their own
// accessors, by snapshot name.
func islandReads(s *nfs.Server, l *netsim.Link) map[string]float64 {
	return map[string]float64{
		"nfs.server_calls":       float64(s.Calls()),
		"nfs.server_data_calls":  float64(s.DataCalls()),
		"nfs.stalls":             float64(s.Stalls()),
		"nfs.restarts":           float64(s.Restarts()),
		"nfs.nfsd_util":          s.NFSDUtilization(),
		"nfs.nfsd_wait_us":       s.MeanNFSDWait(),
		"cache.server_hits":      float64(s.Cache().Hits()),
		"cache.server_misses":    float64(s.Cache().Misses()),
		"cache.server_hit_ratio": s.Cache().HitRate(),
		"netsim.messages":        float64(l.Messages()),
		"netsim.bytes":           float64(l.Bytes()),
		"netsim.drops":           float64(l.Drops()),
		"netsim.retransmits":     float64(l.Retransmits()),
		"netsim.give_ups":        float64(l.GiveUps()),
		"netsim.blocked_us":      l.BlockedTime(),
		"netsim.util":            l.Utilization(),
	}
}

// faultySpec is a small NFS spec with contended daemons, a lossy wire and
// stalling servers, so every island counter moves.
func faultySpec(topo *config.Topology) *config.Spec {
	spec := smallSpec()
	spec.Users, spec.Sessions = 4, 16
	spec.UserTypes = config.ExtremelyHeavyPopulation()
	spec.FS.Server.NFSDs = 1
	spec.FS.Topology = topo
	spec.Fault = &fault.Plan{Name: "metrics", NetTimeout: 100_000, Rules: []fault.Rule{
		{Name: "drop", Ops: []string{fault.OpNet}, Prob: 0.01, Drop: true},
		{Name: "stall", Ops: []string{fault.OpRPC}, Prob: 0.05, Latency: 2e4},
	}}
	return spec
}

func runMetrics(t *testing.T, spec *config.Spec) (*Generator, Metrics) {
	t.Helper()
	gen, err := NewGenerator(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gen.Run(); err != nil {
		t.Fatal(err)
	}
	return gen, gen.Metrics()
}

// TestMetricsFleetRules: on two pooled islands each per-island key reads
// its island's own accessor, each count is the sum of its islands, the
// utilizations are island means, the nfsd wait is the calls-weighted mean
// and the hit ratio is hits over lookups. On one island no key carries an
// island suffix, and each value is island 0's accessor bit for bit.
func TestMetricsFleetRules(t *testing.T) {
	gen, m := runMetrics(t, faultySpec(&config.Topology{Servers: 2, ClientPool: 2}))
	for i, srv := range gen.Servers() {
		for name, want := range islandReads(srv, gen.Links()[i]) {
			if got := m[fmt.Sprintf("%s.%d", name, i)]; got != want {
				t.Errorf("%s.%d = %v, island %d reads %v", name, i, got, i, want)
			}
		}
	}
	for _, name := range []string{"nfs.server_calls", "nfs.stalls", "netsim.drops", "nfs.nfsd_wait_us"} {
		if m[name+".1"] == 0 {
			t.Errorf("%s.1 is 0; the fleet check is vacuous", name)
		}
	}
	for _, name := range []string{
		"nfs.server_calls", "nfs.server_data_calls", "nfs.stalls", "nfs.restarts",
		"cache.server_hits", "cache.server_misses",
		"netsim.messages", "netsim.bytes", "netsim.drops", "netsim.retransmits", "netsim.give_ups", "netsim.blocked_us",
	} {
		if got, want := m[name], m[name+".0"]+m[name+".1"]; got != want {
			t.Errorf("%s = %v, want the islands' sum %v", name, got, want)
		}
	}
	for _, name := range []string{"nfs.nfsd_util", "netsim.util"} {
		if got, want := m[name], (m[name+".0"]+m[name+".1"])/2; got != want {
			t.Errorf("%s = %v, want the island mean %v", name, got, want)
		}
	}
	c0, c1 := m["nfs.server_calls.0"], m["nfs.server_calls.1"]
	if got, want := m["nfs.nfsd_wait_us"], (m["nfs.nfsd_wait_us.0"]*c0+m["nfs.nfsd_wait_us.1"]*c1)/(c0+c1); got != want {
		t.Errorf("nfs.nfsd_wait_us = %v, want the calls-weighted mean %v", got, want)
	}
	hits, misses := m["cache.server_hits"], m["cache.server_misses"]
	if got, want := m["cache.server_hit_ratio"], hits/(hits+misses); got != want {
		t.Errorf("cache.server_hit_ratio = %v, want hits over lookups %v", got, want)
	}

	gen, m = runMetrics(t, faultySpec(nil))
	for name := range m {
		if !slices.Contains(MetricNames(), name) {
			t.Errorf("one-island snapshot holds %q, which is no total", name)
		}
	}
	for name, want := range islandReads(gen.Servers()[0], gen.Links()[0]) {
		if got := m[name]; math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s = %v, island 0 reads %v", name, got, want)
		}
	}
}

// TestMetricsNamesByKind: a local run, a one-island NFS run and a
// two-island NFS run each hold exactly their kind's names, with per-island
// keys on two islands, and the kinds' names together are MetricNames.
func TestMetricsNamesByKind(t *testing.T) {
	every := []string{
		"fsc.build_ops", "fsc.users_built",
		"usim.crashes", "usim.reboots", "usim.truncated_sessions", "usim.departed",
	}
	local := []string{"cache.local_hits", "cache.local_misses"}
	gen, _ := runMetrics(t, smallSpec())
	var island []string
	for name := range islandReads(gen.Servers()[0], gen.Links()[0]) {
		island = append(island, name)
	}
	nfsRun := append([]string{"core.warm_ops", "fault.outage_drops"}, island...)

	localSpec := smallSpec()
	localSpec.FS = config.FSSpec{Kind: config.FSLocal}
	var twoIslands []string
	for _, name := range island {
		twoIslands = append(twoIslands, name+".0", name+".1")
	}
	for _, tc := range []struct {
		label string
		spec  *config.Spec
		want  []string
	}{
		{"local", localSpec, slices.Concat(every, local)},
		{"nfs, one island", smallSpec(), slices.Concat(every, nfsRun)},
		{"nfs, two islands", fleetSpec(2, 0), slices.Concat(every, nfsRun, twoIslands)},
	} {
		_, m := runMetrics(t, tc.spec)
		var got []string
		for name := range m {
			got = append(got, name)
		}
		slices.Sort(got)
		slices.Sort(tc.want)
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: names\n got %s\nwant %s", tc.label, strings.Join(got, " "), strings.Join(tc.want, " "))
		}
	}
	all := slices.Concat(every, local, nfsRun)
	slices.Sort(all)
	if names := MetricNames(); !slices.Equal(names, all) {
		t.Errorf("MetricNames() = %v, want %v", names, all)
	}
}
