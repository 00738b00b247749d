// Quickstart: run the thesis's default workload (heavy I/O users against
// simulated SUN NFS) at reduced scale and print what the generator measured.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"uswg/internal/config"
	"uswg/internal/core"
	"uswg/internal/report"
)

func main() {
	// Start from the thesis's §5.1 configuration: Table 5.1/5.2 file and
	// usage characterization, exponential access sizes (mean 1024 B),
	// heavy I/O users thinking exp(5000 µs) between calls.
	spec := config.Default()
	spec.Sessions = 60 // the thesis runs 600; trim for a quick demo
	spec.Users = 2

	gen, err := core.NewGenerator(spec)
	if err != nil {
		log.Fatal(err)
	}
	res, err := gen.Run()
	if err != nil {
		log.Fatal(err)
	}

	a := res.Analysis
	fmt.Printf("ran %d login sessions (%d users) in %.2f simulated seconds\n",
		res.Sessions, spec.Users, res.VirtualDuration/1e6)
	fmt.Printf("executed %d file I/O system calls (%d errors)\n\n", gen.Log().Len(), a.Errors)

	rows := make([][]string, len(a.ByOp))
	for i, op := range a.ByOp {
		rows[i] = []string{
			op.Op.String(),
			fmt.Sprint(op.Count),
			report.F(op.Size.Mean()),
			report.F(op.Response.Mean()),
		}
	}
	fmt.Println(report.Table([]string{"syscall", "count", "mean bytes", "mean response (µs)"}, rows))

	fmt.Printf("overall: access size %s B, response %s µs/call, %s µs/byte\n",
		report.F(a.AccessSize.Mean()), report.F(a.Response.Mean()), report.F(a.MeanResponsePerByte()))
	m := gen.Metrics()
	fmt.Printf("server:  %.0f RPCs, %.0f%% cache hits, nfsd utilization %.0f%%\n",
		m["nfs.server_calls"], 100*m["cache.server_hit_ratio"], 100*m["nfs.nfsd_util"])
}
