package main

import (
	"container/heap"
	"fmt"
	"runtime"
	"strconv"
)

// The calibration kernel is a fixed piece of stdlib-only work shaped like
// the generator's hot loop: a container/heap event calendar, string-keyed
// map lookups and small short-lived allocations. Timed between reps, it
// tells how fast the host runs at that moment, and every host time t is
// reported as t × c0 / c, where c is the kernel time around the rep and c0
// the reference kernel time in expected.json. The kernel is frozen: editing
// it voids c0, and kernelSum catches an edit.
const (
	kernelEvents = 250_000
	kernelSum    = 61062071283
)

type kevent struct{ at, id uint64 }

type calendar []kevent

func (c calendar) Len() int { return len(c) }
func (c calendar) Less(i, j int) bool {
	return c[i].at < c[j].at || c[i].at == c[j].at && c[i].id < c[j].id
}
func (c calendar) Swap(i, j int) { c[i], c[j] = c[j], c[i] }
func (c *calendar) Push(x any)   { *c = append(*c, x.(kevent)) }
func (c *calendar) Pop() any {
	old := *c
	e := old[len(old)-1]
	*c = old[:len(old)-1]
	return e
}

// kernel runs the frozen workload and returns its checksum.
func kernel() uint64 {
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = "/u" + strconv.Itoa(i%97) + "/f" + strconv.Itoa(i)
	}
	seen := make(map[string]uint64, len(keys))
	cal := make(calendar, 0, 256)
	for i := uint64(0); i < 256; i++ {
		heap.Push(&cal, kevent{at: i, id: i})
	}
	ring := make([][]byte, 64)
	x := uint64(0x9E3779B97F4A7C15)
	var sum uint64
	for i := 0; i < kernelEvents; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		ev := heap.Pop(&cal).(kevent)
		k := keys[x%uint64(len(keys))]
		seen[k]++
		b := make([]byte, 16+x%112)
		b[0] = byte(ev.id)
		ring[i%len(ring)] = b
		sum += ev.at + seen[k] + uint64(len(b))
		heap.Push(&cal, kevent{at: ev.at + 1 + x%1000, id: ev.id})
	}
	return sum
}

// timeKernel runs the kernel once on a freshly collected heap and returns
// its host seconds.
func timeKernel() (float64, error) {
	runtime.GC()
	t0 := now()
	sum := kernel()
	t := now() - t0
	if sum != kernelSum {
		return 0, fmt.Errorf("calibration kernel checksum %d, want %d: the kernel is frozen", sum, kernelSum)
	}
	return t, nil
}
