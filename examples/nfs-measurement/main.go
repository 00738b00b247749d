// NFS measurement (thesis §5.2): measure how the simulated SUN NFS responds
// as the number of simultaneous users grows, reproducing the shape of
// Table 5.3 and Figure 5.6.
//
//	go run ./examples/nfs-measurement
package main

import (
	"fmt"
	"log"

	"uswg/internal/config"
	"uswg/internal/core"
	"uswg/internal/report"
)

func main() {
	fmt.Println("Measuring simulated SUN NFS under extremely heavy I/O users (zero think time).")
	fmt.Println()

	var (
		users []float64
		rpb   []float64
		rows  [][]string
	)
	for n := 1; n <= 6; n++ {
		spec := config.Default()
		spec.Users = n
		spec.Sessions = 12 * n // keep per-user work constant
		spec.Seed = 1991 + uint64(n)
		spec.UserTypes = config.ExtremelyHeavyPopulation()

		gen, err := core.NewGenerator(spec)
		if err != nil {
			log.Fatal(err)
		}
		res, err := gen.Run()
		if err != nil {
			log.Fatal(err)
		}
		a := res.Analysis
		users = append(users, float64(n))
		rpb = append(rpb, a.MeanResponsePerByte())
		rows = append(rows, []string{
			fmt.Sprint(n),
			fmt.Sprintf("%s(%s)", report.F(a.AccessSize.Mean()), report.F(a.AccessSize.Std())),
			fmt.Sprintf("%s(%s)", report.F(a.Response.Mean()), report.F(a.Response.Std())),
			fmt.Sprintf("%.0f%%", 100*gen.Metrics()["nfs.nfsd_util"]),
		})
	}

	fmt.Println(report.Table(
		[]string{"users", "access size mean(std) B", "response mean(std) µs", "nfsd util"},
		rows))
	curve := report.CurvePlot{
		Title:  "average response time per byte (cf. Figure 5.6)",
		XLabel: "users using the computer simultaneously", YLabel: "µs/byte",
		Series: []report.PlotSeries{{Label: "µs/byte", XS: users, YS: rpb}},
	}
	fmt.Println(curve.ASCII(60, 12))
	fmt.Println("With zero think time every user keeps an RPC in flight, so response time")
	fmt.Println("grows nearly linearly with the number of users — the thesis's observation.")
}
