// Compare file systems (thesis §5.3): drive the SAME user population against
// several candidate file systems and compare response times — the procedure
// the thesis proposes for a laboratory choosing a file system. The
// comparison is a scenario, filesystems.json: one workload (3 heavy I/O
// users, 30 sessions), a case axis whose cases patch only the file system,
// and no seed salt, so every candidate runs the same seed and therefore the
// same operation stream.
//
// Candidates: the simulated local UNIX file system, the default simulated
// SUN NFS, an NFS server with one nfsd, and an NFS setup with all caching
// disabled. The same file runs from the command line too.
//
//	go run ./examples/compare-filesystems
//	wlgen scenario run -file examples/compare-filesystems/filesystems.json
package main

import (
	"bytes"
	"context"
	_ "embed"
	"fmt"
	"log"

	"uswg/internal/scenario"
)

//go:embed filesystems.json
var filesystems []byte

func main() {
	// Steps 1-5 of the procedure: one workload spec, one initial file
	// system per candidate, all from the same seed.
	sc, err := scenario.Decode(bytes.NewReader(filesystems))
	if err != nil {
		log.Fatal(err)
	}
	res, err := scenario.Run(context.Background(), sc, scenario.Options{})
	if err != nil {
		log.Fatal(err)
	}
	// Step 6: compare, by response time per byte.
	fmt.Println(res.Render())
	fmt.Println("The local file system avoids the wire; a single nfsd serializes the server;")
	fmt.Println("and without client+server caches every byte pays disk and Ethernet time.")
}
