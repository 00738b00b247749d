//wlint:allow rngdiscipline the benchmark measures host time by design

package main

import "time"

// epoch anchors every host timestamp of the process on the monotonic clock.
var epoch = time.Now()

// nowNS returns host nanoseconds since the process started.
func nowNS() int64 { return int64(time.Since(epoch)) }

// now returns host seconds since the process started.
func now() float64 { return float64(nowNS()) / 1e9 }

// span is one timed interval of the traced pass, written to
// <workload>.spans.json. Parent indexes the enclosing span in the same file
// (-1 for a root); Rep is the rep the span belongs to (-1 for probes).
type span struct {
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
}

// recorder keeps the traced pass's spans in memory until the workload ends.
// A nil recorder records nothing, so the untraced pass pays one nil check
// per boundary.
type recorder struct {
	workload string
	spans    []span
}

// begin opens a span and returns its index for end and for children.
func (r *recorder) begin(name string, parent, rep int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, StartNS: nowNS(), Parent: parent, Workload: r.workload, Rep: rep})
	return len(r.spans) - 1
}

// end closes the span begin returned.
func (r *recorder) end(i int) {
	if r == nil {
		return
	}
	r.spans[i].EndNS = nowNS()
}
