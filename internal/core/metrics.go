package core

import (
	"slices"
	"strconv"

	"uswg/internal/config"
	"uswg/internal/netsim"
	"uswg/internal/nfs"
)

// Metrics is one snapshot of a run's component counters by name. The names
// match wlbench's per-layer metric names where the two overlap.
type Metrics map[string]float64

// runCounters are the run-level counters. One with a kind is present only
// on that file system kind, the others on every kind.
var runCounters = []struct {
	name, kind string
	read       func(*Generator) float64
}{
	{"fsc.build_ops", "", func(g *Generator) float64 { return float64(g.inventory.BuildOps) }},
	{"fsc.users_built", "", func(g *Generator) float64 { return float64(g.inventory.UsersBuilt) }},
	{"usim.crashes", "", func(g *Generator) float64 { return float64(g.simulator.Churn().Crashes) }},
	{"usim.reboots", "", func(g *Generator) float64 { return float64(g.simulator.Churn().Reboots) }},
	{"usim.truncated_sessions", "", func(g *Generator) float64 { return float64(g.simulator.Churn().TruncatedSessions) }},
	{"usim.departed", "", func(g *Generator) float64 { return float64(g.simulator.Churn().Departed) }},
	{"cache.local_hits", config.FSLocal, func(g *Generator) float64 { return float64(g.local.Cache().Hits()) }},
	{"cache.local_misses", config.FSLocal, func(g *Generator) float64 { return float64(g.local.Cache().Misses()) }},
	{"core.warm_ops", config.FSNFS, func(g *Generator) float64 { return float64(g.warmOps) }},
	{"fault.outage_drops", config.FSNFS, func(g *Generator) float64 { return float64(g.faults.OutageDrops()) }},
}

// islandCounters are every NFS island's counters. Metrics folds a fleet's
// in this order: the nfsd wait and the hit ratio read totals before them.
var islandCounters = []struct {
	name string
	read func(*nfs.Server, *netsim.Link) float64
}{
	{"nfs.server_calls", func(s *nfs.Server, _ *netsim.Link) float64 { return float64(s.Calls()) }},
	{"nfs.server_data_calls", func(s *nfs.Server, _ *netsim.Link) float64 { return float64(s.DataCalls()) }},
	{"nfs.stalls", func(s *nfs.Server, _ *netsim.Link) float64 { return float64(s.Stalls()) }},
	{"nfs.restarts", func(s *nfs.Server, _ *netsim.Link) float64 { return float64(s.Restarts()) }},
	{"nfs.nfsd_util", func(s *nfs.Server, _ *netsim.Link) float64 { return s.NFSDUtilization() }},
	{"nfs.nfsd_wait_us", func(s *nfs.Server, _ *netsim.Link) float64 { return s.MeanNFSDWait() }},
	{"cache.server_hits", func(s *nfs.Server, _ *netsim.Link) float64 { return float64(s.Cache().Hits()) }},
	{"cache.server_misses", func(s *nfs.Server, _ *netsim.Link) float64 { return float64(s.Cache().Misses()) }},
	{"cache.server_hit_ratio", func(s *nfs.Server, _ *netsim.Link) float64 { return s.Cache().HitRate() }},
	{"netsim.messages", func(_ *nfs.Server, l *netsim.Link) float64 { return float64(l.Messages()) }},
	{"netsim.bytes", func(_ *nfs.Server, l *netsim.Link) float64 { return float64(l.Bytes()) }},
	{"netsim.drops", func(_ *nfs.Server, l *netsim.Link) float64 { return float64(l.Drops()) }},
	{"netsim.retransmits", func(_ *nfs.Server, l *netsim.Link) float64 { return float64(l.Retransmits()) }},
	{"netsim.give_ups", func(_ *nfs.Server, l *netsim.Link) float64 { return float64(l.GiveUps()) }},
	{"netsim.blocked_us", func(_ *nfs.Server, l *netsim.Link) float64 { return l.BlockedTime() }},
	{"netsim.util", func(_ *nfs.Server, l *netsim.Link) float64 { return l.Utilization() }},
}

// MetricNames lists, sorted, every total (no per-island key) a snapshot has.
func MetricNames() []string {
	var names []string
	for _, c := range runCounters {
		names = append(names, c.name)
	}
	for _, c := range islandCounters {
		names = append(names, c.name)
	}
	slices.Sort(names)
	return names
}

// Metrics builds the snapshot. A name is present exactly when the file
// system kind builds its layer, fault plan and lifecycle or not; an idle
// layer reads 0. One island reads its own server and link. A fleet keeps
// island i's value as <name>.<i> and sums the islands, except for island
// means of the utilizations, a calls-weighted nfsd wait and hits over
// lookups, so an idle island dilutes neither of the last two.
func (g *Generator) Metrics() Metrics {
	m := Metrics{}
	for _, c := range runCounters {
		if c.kind == "" || c.kind == g.spec.FS.Kind {
			m[c.name] = c.read(g)
		}
	}
	n := len(g.servers)
	if n == 0 {
		return m
	}
	for _, c := range islandCounters {
		if n == 1 {
			m[c.name] = c.read(g.servers[0], g.links[0])
			continue
		}
		var total float64
		for i, srv := range g.servers {
			v := c.read(srv, g.links[i])
			m[c.name+"."+strconv.Itoa(i)] = v
			if c.name == "nfs.nfsd_wait_us" {
				v *= float64(srv.Calls())
			}
			total += v
		}
		// A zero denominator has a zero numerator: the ratio reads 0.
		switch c.name {
		case "nfs.nfsd_util", "netsim.util":
			total /= float64(n)
		case "nfs.nfsd_wait_us":
			total /= max(m["nfs.server_calls"], 1)
		case "cache.server_hit_ratio":
			total = m["cache.server_hits"] / max(m["cache.server_hits"]+m["cache.server_misses"], 1)
		}
		m[c.name] = total
	}
	return m
}
