// Extensions (thesis §6.2): the future-work features the thesis proposes,
// implemented as opt-in spec fields, demonstrated side by side against the
// published baseline model.
//
//	go run ./examples/extensions
package main

import (
	"fmt"
	"log"

	"uswg/internal/config"
	"uswg/internal/core"
	"uswg/internal/report"
	"uswg/internal/trace"
)

// variant is one extension configuration under comparison.
type variant struct {
	name   string
	mutate func(*config.Spec)
}

func main() {
	variants := []variant{
		{"baseline (published model)", func(*config.Spec) {}},
		{"Markov stream (locality 0.8)", func(s *config.Spec) {
			s.Ext.Locality = 0.8
		}},
		{"random access (NOTES files)", func(s *config.Spec) {
			for i := range s.Categories {
				if s.Categories[i].FileType == config.FileNotes {
					s.Categories[i].Access = config.AccessRandom
				}
			}
		}},
		{"time-of-day think (x0.25 peak)", func(s *config.Spec) {
			// A two-phase day: busy (quarter think time) then quiet.
			s.Ext.ThinkFactors = []float64{0.25, 1.75}
			s.Ext.ThinkPeriod = 60e6 // one minute of virtual time per cycle
		}},
		{"3 windows per user", func(s *config.Spec) {
			s.Ext.ConcurrentSessions = 3
		}},
	}

	var rows [][]string
	for _, v := range variants {
		spec := config.Default()
		spec.Users = 2
		spec.Sessions = 24
		v.mutate(spec)

		gen, err := core.NewGenerator(spec)
		if err != nil {
			log.Fatal(err)
		}
		res, err := gen.Run()
		if err != nil {
			log.Fatal(err)
		}
		a := res.Analysis

		rows = append(rows, []string{
			v.name,
			report.F(sameFileRate(gen.Log().Records())),
			report.F(100 * gen.Metrics()["cache.server_hit_ratio"]),
			report.F(a.MeanResponsePerByte()),
			report.F(res.VirtualDuration / 1e6),
		})
	}
	fmt.Println("Thesis §6.2 extensions, same workload otherwise (2 users, 24 sessions):")
	fmt.Println()
	fmt.Println(report.Table(
		[]string{"variant", "same-file rate", "server hit %", "µs/byte", "makespan (s)"},
		rows))
	fmt.Println("Locality lengthens same-file runs and warms caches; random access does the")
	fmt.Println("opposite. Time-of-day factors and concurrent windows reshape the makespan.")
}

// sameFileRate is the fraction of consecutive data ops that hit the same
// file — the observable the Markov extension moves.
func sameFileRate(recs []trace.Record) float64 {
	var same, total int
	var prev string
	for _, r := range recs {
		if !r.Op.IsData() {
			continue
		}
		if prev != "" {
			total++
			if r.Path == prev {
				same++
			}
		}
		prev = r.Path
	}
	if total == 0 {
		return 0
	}
	return float64(same) / float64(total)
}
