package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"uswg/internal/config"
	"uswg/internal/fault"
	"uswg/internal/usim"
	"uswg/internal/vfs"
)

// TestFullRecordLogDigest pins the full-record usage log byte for byte: each
// spec runs with the log sink, the log is written as JSONL (the bytes `wlgen
// run -log` writes), and its SHA-256 must equal the recorded digest. A
// change that means to keep simulated output identical keeps every row.
//
// The rows are the default spec; a lazy one-island population, whose
// clients are built at each arrival and dropped when the user leaves; and
// the session-runner paths no built-in scenario reaches: concurrent
// sessions per user, an eager population that arrives, departs, crashes
// and reboots, a lazy population with idle users (more users than
// sessions), a lazy population arriving over a window and crashing, a
// crashing population on two islands of two pooled clients each, whose
// crashes close co-tenants' descriptors under their routers, and clients
// without a page cache, where every read is a straight fetch and every
// write a synchronous push. Three rows run the simulated local file
// system: the default spec, a population arriving over a window and
// crashing, whose crash cleanup closes each session's descriptors on the
// zero clock through the charged path, and a lazy population.
// The storage stage's write policies each have a row the defaults do not
// reach: the local file system writing through, and a server writing
// behind. The last row is a lazy population arriving on two islands of two
// pooled clients under a lossy wire and a stalling server, the only row
// with a fault plan.
// Each row also pins the sessions started, its churn counts and its
// retransmits, give-ups and stalls, so a row cannot silently stop
// exercising the lifecycle or fault path it was added for.
//
// If an intentional change moves the simulated output, review the JSONL
// diff against the previous commit, then paste the digests the failing
// test reports:
//
//	go test ./internal/core -run TestFullRecordLogDigest
func TestFullRecordLogDigest(t *testing.T) {
	lazy := config.Default()
	lazy.Users = 12
	lazy.Sessions = 60
	lazy.LazyUsers = true

	concurrent := config.Default()
	concurrent.Users = 3
	concurrent.Sessions = 60
	concurrent.Ext.ConcurrentSessions = 2

	arrive := config.DistSpec{Kind: config.KindUniform, Hi: 20e6}
	depart := config.DistSpec{Kind: config.KindUniform, Lo: 40e6, Hi: 80e6}
	mttf, mttr := config.Exp(15e6), config.Const(2e6)
	churn := config.Default()
	churn.Users = 6
	churn.Sessions = 60
	churn.UserTypes[0].Lifecycle = &config.Lifecycle{Arrive: &arrive, Depart: &depart, MTTF: &mttf, MTTR: &mttr}

	idle := config.Default()
	idle.Users = 20
	idle.Sessions = 12
	idle.LazyUsers = true

	lazyChurn := config.Default()
	lazyChurn.Users = 12
	lazyChurn.Sessions = 60
	lazyChurn.LazyUsers = true
	lazyChurn.UserTypes[0].Lifecycle = &config.Lifecycle{Arrive: &arrive, MTTF: &mttf, MTTR: &mttr}

	pooledChurn := config.Default()
	pooledChurn.Users = 8
	pooledChurn.Sessions = 64
	pooledChurn.FS.Topology = &config.Topology{Servers: 2, ClientPool: 2, Placement: config.PlaceReplicate}
	pooledChurn.UserTypes[0].Lifecycle = &config.Lifecycle{MTTF: &mttf, MTTR: &mttr}

	uncached := config.Default()
	uncached.Users = 4
	uncached.Sessions = 40
	uncached.FS.Client.CacheBlocks = 0

	local := config.Default()
	local.FS.Kind = config.FSLocal

	localChurn := config.Default()
	localChurn.Users = 6
	localChurn.Sessions = 60
	localChurn.FS.Kind = config.FSLocal
	localChurn.UserTypes[0].Lifecycle = &config.Lifecycle{Arrive: &arrive, MTTF: &mttf, MTTR: &mttr}

	localLazy := config.Default()
	localLazy.Users = 12
	localLazy.Sessions = 60
	localLazy.LazyUsers = true
	localLazy.FS.Kind = config.FSLocal

	localWT := config.Default()
	localWT.Users = 6
	localWT.Sessions = 60
	localWT.FS.Kind = config.FSLocal
	localWT.FS.Local = vfs.DefaultLocalCostConfig()
	localWT.FS.Local.WriteThrough = true

	serverWB := config.Default()
	serverWB.Users = 6
	serverWB.Sessions = 60
	serverWB.FS.Server.WriteThrough = false

	lazyLossy := config.Default()
	lazyLossy.Users = 12
	lazyLossy.Sessions = 60
	lazyLossy.LazyUsers = true
	lazyLossy.FS.Topology = &config.Topology{Servers: 2, ClientPool: 2}
	lazyLossy.UserTypes[0].Lifecycle = &config.Lifecycle{Arrive: &arrive}
	lazyLossy.Fault = &fault.Plan{
		Name: "lossy", NetTimeout: 100_000, NetRetries: 2, NetBackoff: 2, NetMaxTimeout: 400_000,
		Rules: []fault.Rule{
			{Name: "drop", Ops: []string{fault.OpNet}, Prob: 0.15, Drop: true},
			{Name: "stall", Ops: []string{fault.OpRPC}, Prob: 0.05, Latency: 20_000},
		},
	}

	// The retransmits, give-ups and server stalls of the row with a fault
	// plan; every other row has none.
	lossy := map[string][3]int{"lazy-lossy": {3494, 71, 638}}

	for _, tc := range []struct {
		name     string
		spec     *config.Spec
		want     string
		sessions int // sessions started, truncated ones included
		churn    usim.ChurnStats
	}{
		{"default", config.Default(), "d5402e68335b1b5166d9e115b94d3bc698d8f9070d091ff7cb72a82991f0f000", 600, usim.ChurnStats{}},
		{"lazy", lazy, "eca4ab782e36682330bf14e00b52b4e2f8ee2067929199623eeee4c0823116d2", 60, usim.ChurnStats{}},
		{"concurrent", concurrent, "1998c418c260dfe883fb985598b9d3739bbfd37ad1e5c7d5fd35acba6a5a143d", 60, usim.ChurnStats{}},
		{"churn", churn, "9fe923a8286d54ce3019fa58c31295e0383fecd4c8e3eb0091d07576a8a914db", 56,
			usim.ChurnStats{Crashes: 23, Reboots: 23, TruncatedSessions: 23, Departed: 1}},
		{"lazy-idle", idle, "097073b847b204044469388068c3634706994f9de3a71b5535bec03fd30ceff4", 12, usim.ChurnStats{}},
		{"lazy-churn", lazyChurn, "4b41176f8470ff242fd520a8fc93e67777ddf481304d34283c71123e8bc58ef8", 60,
			usim.ChurnStats{Crashes: 22, Reboots: 22, TruncatedSessions: 22}},
		{"pooled-churn", pooledChurn, "65033be98fea532f6c101c0d2a43fb72ef9da1102673dcae7fb5c023b05e737a", 64,
			usim.ChurnStats{Crashes: 14, Reboots: 14, TruncatedSessions: 14}},
		{"no-client-cache", uncached, "b839a7b5130e442b3a6a1f9df75510daa71d998e7b12d41538fe9080c8643ca6", 40, usim.ChurnStats{}},
		{"local", local, "4f90d62c43e458f5d51df11ce8f9b96a3bd18b565526646a2a385497c1558c6d", 600, usim.ChurnStats{}},
		{"local-churn", localChurn, "8e186b1fe0bf38142b993e540f76043e843d78bf72b55ad86359dc570a37a9a4", 60,
			usim.ChurnStats{Crashes: 12, Reboots: 12, TruncatedSessions: 12}},
		{"local-lazy", localLazy, "e9d779791500007a0f104f5d3dabc5600125d2e90257dda99ce92df774bdd8ab", 60, usim.ChurnStats{}},
		{"local-write-through", localWT, "965cc0477f89914490cb43a368f05cbe1f5100edc9d15c1a6e36d5b170a51aba", 60, usim.ChurnStats{}},
		{"server-write-behind", serverWB, "b2d90890c2844895613f692df1f181c53da22d28af8f04a2b9caf68bd0ba2470", 60, usim.ChurnStats{}},
		{"lazy-lossy", lazyLossy, "c9595226cbb1026474ce7a3e1d8fcf8b8e0f748fa27c1c2586b14c702ea1a168", 60, usim.ChurnStats{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gen, err := NewGenerator(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			res, err := gen.Run()
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			if err := gen.Log().WriteJSONL(h); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("%d records hash to %s, want %s", gen.Log().Len(), got, tc.want)
			}
			if res.Sessions != tc.sessions {
				t.Errorf("%d sessions started, want %d", res.Sessions, tc.sessions)
			}
			m := gen.Metrics()
			got := usim.ChurnStats{
				Crashes: int(m["usim.crashes"]), Reboots: int(m["usim.reboots"]),
				TruncatedSessions: int(m["usim.truncated_sessions"]), Departed: int(m["usim.departed"]),
			}
			if got != tc.churn {
				t.Errorf("churn %+v, want %+v", got, tc.churn)
			}
			faults := [3]int{int(m["netsim.retransmits"]), int(m["netsim.give_ups"]), int(m["nfs.stalls"])}
			if faults != lossy[tc.name] {
				t.Errorf("retransmits, give-ups and stalls %v, want %v", faults, lossy[tc.name])
			}
		})
	}
}
