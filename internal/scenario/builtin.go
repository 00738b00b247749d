package scenario

// The built-in scenarios: every table and figure of the thesis's Chapter 5
// evaluation, the fault5.x resilience family, and the scale5.x extension,
// expressed as data. The committed golden folder
// (internal/artifact/testdata/golden) pins each one's output; `wlgen
// scenario dump -name <x>` exports any of them as JSON, and a new workload
// is the same shape in a file — no code.

import (
	"fmt"

	"uswg/internal/config"
	"uswg/internal/fault"
)

func init() {
	for _, sc := range Builtins() {
		MustRegister(sc)
	}
}

// Builtins constructs the built-in scenario set in evaluation order.
func Builtins() []*Scenario {
	out := []*Scenario{
		table51(), table52(), table53(), table54(),
		fig51(), fig52(), fig53to55(),
	}
	out = append(out, userSweeps()...)
	out = append(out, fig512(),
		fault51(), fault52(), fault53(), fault54(), fault55(),
		fault56(), fault57(), fault58(),
		scale51(),
		scale52(1), scale52(2), scale52(4), scale52(8),
		scale52pool(),
		scale53(), scale53curve(),
	)
	return out
}

func table51() *Scenario {
	return New("table5.1").
		Users(4).FileBudget(1000).
		Characterization("Table 5.1 — file characterization by file category").
		MustBuild()
}

func table52() *Scenario {
	return New("table5.2").
		Sessions(200).Files(120, 60).
		Usage("Table 5.2 — user characterization by file category (%d sessions)").
		MustBuild()
}

func table53() *Scenario {
	return New("table5.3").
		SessionsPerUser(50).Files(120, 60).Stream().
		SweepUsers(1, 2, 3, 4, 5, 6).Salt(SaltUsers, 1, 0).
		Table("Table 5.3 — access size (B) and response time (µs) of file access system calls").
		Col("users", MetricUsers, FormatInt).
		Col("access size mean(std)", MetricAccess, FormatMeanStd).
		Col("response time mean(std)", MetricResponse, FormatMeanStd).
		MustBuild()
}

func table54() *Scenario {
	return New("table5.4").
		Population([]config.UserType{
			{Name: config.UserExtremelyHeavy, ThinkTime: config.Const(0), Fraction: 1},
			{Name: config.UserHeavy, ThinkTime: config.Exp(config.ThinkHeavy), Fraction: 1},
			{Name: config.UserLight, ThinkTime: config.Exp(config.ThinkLight), Fraction: 1},
		}).
		UserTypesTable("Table 5.4 — types of users simulated in experiments").
		MustBuild()
}

func fig51() *Scenario {
	return New("fig5.1").
		Densities("Figure 5.1 — examples of phase-type exponential distributions",
			DensityPanel{
				Label: "f(x) = exp(22.1, x)",
				Dist: config.DistSpec{Kind: config.KindPhaseExp, ExpStages: []config.ExpStageSpec{
					{W: 1, Theta: 22.1},
				}},
			},
			DensityPanel{
				Label: "f(x) = 0.5 exp(10, x) + 0.5 exp(25, x-20)",
				Dist: config.DistSpec{Kind: config.KindPhaseExp, ExpStages: []config.ExpStageSpec{
					{W: 0.5, Theta: 10},
					{W: 0.5, Theta: 25, Offset: 20},
				}},
			},
			DensityPanel{
				Label: "f(x) = 0.4 exp(12.7, x) + 0.3 exp(18.2, x-18) + 0.3 exp(15.0, x-40)",
				Dist: config.DistSpec{Kind: config.KindPhaseExp, ExpStages: []config.ExpStageSpec{
					{W: 0.4, Theta: 12.7},
					{W: 0.3, Theta: 18.2, Offset: 18},
					{W: 0.3, Theta: 15.0, Offset: 40},
				}},
			}).
		MustBuild()
}

func fig52() *Scenario {
	return New("fig5.2").
		Densities("Figure 5.2 — examples of multi-stage gamma distributions",
			DensityPanel{
				Label: "f(x) = g(2.0, 8.0, x)",
				Dist: config.DistSpec{Kind: config.KindGamma, GammaStages: []config.GammaStageSpec{
					{W: 1, Alpha: 2, Theta: 8},
				}},
			},
			DensityPanel{
				Label: "f(x) = g(1.5, 25.4, x-12)",
				Dist: config.DistSpec{Kind: config.KindGamma, GammaStages: []config.GammaStageSpec{
					{W: 1, Alpha: 1.5, Theta: 25.4, Offset: 12},
				}},
			},
			DensityPanel{
				Label: "f(x) = 0.7 g(1.3, 12.3, x) + 0.2 g(1.5, 12.4, x-23) + 0.1 g(1.4, 12.3, x-41)",
				Dist: config.DistSpec{Kind: config.KindGamma, GammaStages: []config.GammaStageSpec{
					{W: 0.7, Alpha: 1.3, Theta: 12.3},
					{W: 0.2, Alpha: 1.5, Theta: 12.4, Offset: 23},
					{W: 0.1, Alpha: 1.4, Theta: 12.3, Offset: 41},
				}},
			}).
		MustBuild()
}

func fig53to55() *Scenario {
	return New("fig5.3").Alias("fig5.4", "fig5.5").
		Sessions(600).Files(120, 60).Stream().
		Histograms("Figures 5.3-5.5 — system-wide file usage distributions (%d sessions)", 5,
			HistPanel{Title: "Figure 5.3 — average access-per-byte", XLabel: "access-per-byte",
				Max: 10, Bins: 40, Measure: MeasureAccessPerByte},
			HistPanel{Title: "Figure 5.4 — average file size (bytes)", XLabel: "file size",
				Max: 60000, Bins: 40, Measure: MeasureAvgFileSize},
			HistPanel{Title: "Figure 5.5 — average number of files referenced", XLabel: "number of files",
				Max: 100, Bins: 40, Measure: MeasureFiles}).
		MustBuild()
}

// userSweep builds one Figures 5.6-5.11 population sweep.
func userSweep(name, figure, label string, pop []config.UserType) *Scenario {
	return New(name).
		Population(pop).SessionsPerUser(50).Files(120, 60).Stream().
		SweepUsers(1, 2, 3, 4, 5, 6).Salt(SaltUsers, 17, 0).
		Curve(figure+" — average response time per byte, "+label,
			MetricUsers, "users", "µs/byte", MetricRPB).
		Col("users", MetricUsers, FormatInt).
		Col("µs/byte", MetricRPB, FormatF).
		MustBuild()
}

func userSweeps() []*Scenario {
	return []*Scenario{
		userSweep("fig5.6", "Figure 5.6", "100% extremely heavy I/O users", config.ExtremelyHeavyPopulation()),
		userSweep("fig5.7", "Figure 5.7", "100% heavy I/O users", config.Population(1)),
		userSweep("fig5.8", "Figure 5.8", "80% heavy, 20% light I/O users", config.Population(0.8)),
		userSweep("fig5.9", "Figure 5.9", "50% heavy, 50% light I/O users", config.Population(0.5)),
		userSweep("fig5.10", "Figure 5.10", "20% heavy, 80% light I/O users", config.Population(0.2)),
		userSweep("fig5.11", "Figure 5.11", "100% light I/O users", config.Population(0)),
	}
}

func fig512() *Scenario {
	return New("fig5.12").
		Users(1).Sessions(50).Files(120, 60).Stream().
		Population(config.ExtremelyHeavyPopulation()).
		SweepValue("access size", BindAccessSize, 128, 256, 512, 1024, 1536, 2048).
		Salt(SaltValue, 1, 0).
		Curve("Figure 5.12 — average response time per byte vs access size",
			MetricValue, "mean access size (B)", "µs/byte", MetricRPB).
		Col("access size (B)", MetricValue, FormatF).
		Col("µs/byte", MetricRPB, FormatF).
		MustBuild()
}

func fault51() *Scenario {
	return New("fault5.1").
		Population(config.ExtremelyHeavyPopulation()).
		SessionsPerUser(50).Files(120, 60).Stream().
		SweepValue("error rate", BindFaultProb, 0, 0.01, 0.05).Rule("eio").
		SweepUsers(1, 2, 3, 4, 5, 6).
		Salt(SaltIndex, 131, 7).
		Fault(fault.Plan{
			Name: "fault5.1",
			Rules: []fault.Rule{{
				Name: "eio", Ops: []string{"read", "write"},
				Err: fault.EIO, Latency: 1000,
			}},
		}, true).
		Grid("Fault 5.1 — Figure 5.6 user curves under client error injection (EIO on data ops)",
			"users", FormatPct).
		Cell("µs/B @%s", MetricRPB, FormatF).
		Cell("avail @%s", MetricAvailability, FormatPct).
		MustBuild()
}

func fault52() *Scenario {
	return New("fault5.2").
		Users(4).SessionsPerUser(50).Files(120, 60).Stream().NFSDs(1).
		Population(config.ExtremelyHeavyPopulation()).
		SweepValue("stall", BindFaultLatency, 0, 20_000, 100_000).Rule("stall").
		Salt(SaltIndex, 37, 3).
		Fault(fault.Plan{
			Name: "fault5.2",
			Rules: []fault.Rule{{
				Name: "stall", Ops: []string{fault.OpRPC}, Prob: 0.02,
			}},
		}, true).
		Table("Fault 5.2 — NFS server stalls (4 users, 2.00% of RPCs stalled)").
		Col("stall (µs)", MetricValue, FormatF).
		Col("stalls", MetricStalls, FormatInt).
		Col("mean nfsd wait (µs)", MetricNFSDWait, FormatF).
		Col("µs/B", MetricRPB, FormatF).
		MustBuild()
}

func fault53() *Scenario {
	return New("fault5.3").
		Users(4).SessionsPerUser(50).Files(120, 60).Stream().
		Population(config.ExtremelyHeavyPopulation()).
		SweepValue("drop rate", BindFaultProb, 0, 0.005, 0.02, 0.05).Rule("drop").
		Salt(SaltIndex, 59, 11).
		Fault(fault.Plan{
			Name: "fault5.3",
			Rules: []fault.Rule{{
				Name: "drop", Ops: []string{fault.OpNet}, Drop: true,
			}},
			NetTimeout: 100_000,
			NetRetries: 5,
		}, true).
		Table("Fault 5.3 — lossy wire with NFS retransmission (4 users, timeo 100000 µs)").
		Col("drop rate", MetricValue, FormatPct).
		Col("drops", MetricDrops, FormatInt).
		Col("retransmits", MetricRetransmits, FormatInt).
		Col("µs/B", MetricRPB, FormatF).
		Col("availability", MetricAvailability, FormatPct).
		MustBuild()
}

func fault54() *Scenario {
	return New("fault5.4").
		Users(2).SessionsPerUser(50).Files(120, 60).LogTrace().
		Population(config.Population(1)).
		SweepCases("scenario",
			Case{Label: "healthy"},
			Case{Label: "transient burst", Plan: &fault.Plan{
				// A bounded glitch: the first 200 data calls after onset
				// fail, then the fault clears — a server reboot mid-run.
				Name: "fault5.4-burst",
				Rules: []fault.Rule{{
					Name: "burst", Ops: []string{"read", "write"},
					Prob: 1, Err: fault.EIO, Latency: 1000, MaxFires: 200, After: 1e6,
				}},
			}},
			Case{Label: "disk fills (sticky)", Plan: &fault.Plan{
				// Each write has a small chance of being the one that fills
				// the disk; from then on every write and create fails.
				Name: "fault5.4-full",
				Rules: []fault.Rule{{
					Name: "full", Ops: []string{"write", "create"},
					Prob: 0.002, Err: fault.ENOSPC, Latency: 1000, Sticky: true,
				}},
			}}).
		Salt(SaltIndex, 17, 29).
		Table("Fault 5.4 — outage shapes: transient vs sticky faults (2 users)").
		Col("scenario", MetricCase, "").
		Col("ops", MetricOps, FormatInt).
		Col("errors", MetricErrors, FormatInt).
		Col("avail", MetricAvailability, FormatPct).
		Col("write avail (pre)", MetricWriteAvailPre, FormatPct).
		Col("write avail (post)", MetricWriteAvailPos, FormatPct).
		Col("µs/B", MetricRPB, FormatF).
		MustBuild()
}

// fault55 is the correlated burst-loss scenario: the wire degrades in
// Gilbert-Elliott good/bad episodes (fault.Burst) instead of independent
// per-message losses — the clumped retransmission storms real interference
// produces. Purely data: the burst knob is part of the fault-plan JSON.
func fault55() *Scenario {
	burstPlan := func(name string, enter, exit float64) *fault.Plan {
		return &fault.Plan{
			Name: name,
			Rules: []fault.Rule{{
				Name: "burst", Ops: []string{fault.OpNet}, Drop: true,
				Burst: &fault.Burst{PEnter: enter, PExit: exit},
			}},
			NetTimeout: 100_000,
			NetRetries: 5,
		}
	}
	return New("fault5.5").
		Users(4).SessionsPerUser(50).Files(120, 60).Stream().
		Population(config.ExtremelyHeavyPopulation()).
		SweepCases("wire",
			Case{Label: "clean wire"},
			// Mean episode: 1/p_exit messages of loss every 1/p_enter
			// messages of clean wire.
			Case{Label: "light bursts", Plan: burstPlan("fault5.5-light", 0.001, 0.10)},
			Case{Label: "heavy bursts", Plan: burstPlan("fault5.5-heavy", 0.004, 0.04)}).
		Salt(SaltIndex, 23, 13).
		Table("Fault 5.5 — correlated burst loss on the wire (4 users, Gilbert-Elliott episodes)").
		Col("wire", MetricCase, "").
		Col("drops", MetricDrops, FormatInt).
		Col("retransmits", MetricRetransmits, FormatInt).
		Col("µs/B", MetricRPB, FormatF).
		Col("availability", MetricAvailability, FormatPct).
		MustBuild()
}

// fault56 is the workstation-crash churn figure: every machine in the
// population crashes with exponential MTTF, loses its caches and in-flight
// session, repairs for a constant MTTR, and rejoins cold. The transient
// view shows throughput dips at each crash and the rejoin cost after.
func fault56() *Scenario {
	pop := config.ExtremelyHeavyPopulation()
	mttf, mttr := config.Exp(30e6), config.Const(5e6)
	pop[0].Lifecycle = &config.Lifecycle{MTTF: &mttf, MTTR: &mttr}
	return New("fault5.6").
		Users(4).SessionsPerUser(50).Files(120, 60).Stream().Window(10e6).
		Population(pop).
		Salt(SaltIndex, 43, 19).
		Transient("Fault 5.6 — workstation-crash churn (4 users, MTTF 30 s, MTTR 5 s)").
		MustBuild()
}

// fault57 is the server-outage recovery figure: the NFS server goes dark
// for a 30 s window mid-run, hard-mounted clients ride it out with capped
// exponential backoff (no give-ups by construction), and the server
// restarts with a cold block cache. The transient view shows the response
// spike during the outage and the measured time to recover after it.
func fault57() *Scenario {
	return New("fault5.7").
		Users(4).SessionsPerUser(50).Files(120, 60).Stream().Window(10e6).
		Population(config.ExtremelyHeavyPopulation()).
		Salt(SaltIndex, 47, 23).
		Fault(fault.Plan{
			Name:          "fault5.7",
			ServerOutages: []fault.Outage{{Start: 60e6, End: 90e6}},
			NetTimeout:    100_000,
			NetBackoff:    2,
			NetMaxTimeout: 3_200_000,
			NetHard:       true,
		}, false).
		Transient("Fault 5.7 — server outage at 60-90 s, hard-mounted clients (timeo 100 ms, backoff x2 capped at 3.2 s)").
		MustBuild()
}

// fault58 is the login-storm figure: the whole population arrives cold
// inside one 30 s window instead of being pre-warmed, so the server takes
// every machine's cache-warming misses at once. The transient view shows
// the rejoin storm decaying into steady state.
func fault58() *Scenario {
	pop := config.ExtremelyHeavyPopulation()
	arrive := config.DistSpec{Kind: config.KindUniform, Lo: 0, Hi: 30e6}
	pop[0].Lifecycle = &config.Lifecycle{Arrive: &arrive}
	return New("fault5.8").
		Users(6).SessionsPerUser(50).Files(120, 60).Stream().Window(10e6).
		Population(pop).
		Salt(SaltIndex, 53, 31).
		Transient("Fault 5.8 — login storm: 6 cold workstations arriving inside 30 s").
		MustBuild()
}

func scale51() *Scenario {
	return New("scale5.1").
		SessionsFromUsers().Files(60, 12).Stream().
		Population(config.ExtremelyHeavyPopulation()).
		SweepUsers(50, 100, 200, 500, 1000).Salt(SaltUsers, 29, 5).
		Curve("Scale 5.1 — Figure 5.6 contention curve, 50-1000 streaming users",
			MetricUsers, "users", "µs/byte", MetricRPB).
		Col("users", MetricUsers, FormatInt).
		Col("sessions", MetricSessions, FormatInt).
		Col("ops", MetricOps, FormatInt).
		Col("µs/byte", MetricRPB, FormatF).
		Col("nfsd util", MetricNFSDUtil, FormatPct1).
		MustBuild()
}

// scale52 builds one curve of the scale-out family: the scale5.1 contention
// sweep on a fleet of `servers` islands with 16 pooled clients per island,
// directories sharded across islands by the stable namespace hash. The four
// registered counts (1/2/4/8) form the Scale 5.2 figure family.
func scale52(servers int) *Scenario {
	return New(fmt.Sprintf("scale5.2x%d", servers)).
		SessionsFromUsers().Files(60, 12).Stream().
		Population(config.ExtremelyHeavyPopulation()).
		Servers(servers).ClientPool(16).
		SweepUsers(50, 100, 200, 500, 1000).
		Salt(SaltUsers, 31, uint64(servers)).
		Curve(fmt.Sprintf("Scale 5.2 — contention curve on %d server island(s), 16 pooled clients each", servers),
			MetricUsers, "users", "µs/byte", MetricRPB).
		Col("users", MetricUsers, FormatInt).
		Col("sessions", MetricSessions, FormatInt).
		Col("ops", MetricOps, FormatInt).
		Col("µs/byte", MetricRPB, FormatF).
		Col("nfsd util", MetricNFSDUtil, FormatPct1).
		MustBuild()
}

// scale52pool is the population far end of the family: 10,000 users
// multiplexed over 32 pooled clients on each of 4 islands, the read-mostly
// system tree replicated to every island. Construction and warming are
// proportional to distinct files and pool width, which is what makes a
// five-digit population tractable at all.
func scale52pool() *Scenario {
	return New("scale5.2pool").
		Users(10000).Sessions(2000).Files(60, 4).Stream().
		Population(config.ExtremelyHeavyPopulation()).
		Servers(4).ClientPool(32).Placement(config.PlaceReplicate).
		Salt(SaltIndex, 61, 41).
		Table("Scale 5.2 — 10,000 pooled users on 4 islands (32 clients/island, replicated system tree)").
		Col("users", MetricUsers, FormatInt).
		Col("sessions", MetricSessions, FormatInt).
		Col("ops", MetricOps, FormatInt).
		Col("µs/byte", MetricRPB, FormatF).
		Col("nfsd util", MetricNFSDUtil, FormatPct1).
		MustBuild()
}

// lazyArrivalPopulation is the scale5.3 population: zero-think-time users
// whose workstations boot across a shared 30-second arrival window. With
// lazy materialization only the session-holding users ever build — the other
// tens of thousands cost their slots in a few flat index arrays.
func lazyArrivalPopulation() []config.UserType {
	arrive := config.DistSpec{Kind: config.KindUniform, Lo: 0, Hi: 30e6}
	pop := config.ExtremelyHeavyPopulation()
	pop[0].Lifecycle = &config.Lifecycle{Arrive: &arrive}
	return pop
}

// scale53 is the order-of-magnitude step past scale5.2pool: 100,000 users
// with sparse sessions over a pooled 8-island fleet, materialized lazily on
// arrival. The materialized and build-ops columns pin the claim that memory
// and setup cost follow the active population, not the spec population.
func scale53() *Scenario {
	return New("scale5.3").
		Users(100000).Sessions(4000).Files(60, 4).Stream().
		Population(lazyArrivalPopulation()).LazyUsers().
		Servers(8).ClientPool(32).Placement(config.PlaceReplicate).
		Salt(SaltIndex, 67, 43).
		Table("Scale 5.3 — 100,000 lazy users on 8 islands (32 clients/island, replicated system tree)").
		Col("users", MetricUsers, FormatInt).
		Col("sessions", MetricSessions, FormatInt).
		Col("materialized", MetricMaterialized, FormatInt).
		Col("build ops", MetricBuildOps, FormatInt).
		Col("ops", MetricOps, FormatInt).
		Col("µs/byte", MetricRPB, FormatF).
		Col("nfsd util", MetricNFSDUtil, FormatPct1).
		MustBuild()
}

// scale53curve charts where the next wall is: the same 100,000-user lazy
// population against island count, so the contention knee is visible as the
// fleet shrinks under it.
func scale53curve() *Scenario {
	return New("scale5.3curve").
		Users(100000).Sessions(2000).Files(60, 4).Stream().
		Population(lazyArrivalPopulation()).LazyUsers().
		ClientPool(32).Placement(config.PlaceReplicate).
		SweepServers(2, 4, 8).
		Salt(SaltIndex, 67, 47).
		Curve("Scale 5.3 — 100,000 lazy users vs island count (32 pooled clients each)",
			MetricValue, "server islands", "µs/byte", MetricRPB).
		Col("servers", MetricValue, FormatInt).
		Col("sessions", MetricSessions, FormatInt).
		Col("materialized", MetricMaterialized, FormatInt).
		Col("ops", MetricOps, FormatInt).
		Col("µs/byte", MetricRPB, FormatF).
		Col("nfsd util", MetricNFSDUtil, FormatPct1).
		MustBuild()
}
