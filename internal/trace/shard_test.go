package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
)

// chunkCounts are record counts straddling every chunk boundary of the
// list: empty, one record, each capacity −1/0/+1, and several maximum-size
// chunks. They serve both as per-handle append counts and as the list
// lengths at which snapshots are taken.
func chunkCounts() []int {
	counts := []int{0, 1}
	total := 0
	for i := 0; total < 3*maxChunk; i++ {
		size := maxChunk
		if i < chunkDoublings {
			size = minChunk << i
		}
		total += size
		counts = append(counts, total-1, total, total+1)
	}
	return counts
}

// TestChunkedShardsMatchFlatLog appends through many Shard(u) handles in a
// pseudo-random interleaving and checks every reader against a flat
// reference slice in emission order. Every handle is the log's one
// appender, and a snapshot taken at each chunk boundary and halfway must
// see exactly its prefix while appends continue.
func TestChunkedShardsMatchFlatLog(t *testing.T) {
	counts := chunkCounts()
	var order []int // handle of each append, shuffled below
	for s, n := range counts {
		for i := 0; i < n; i++ {
			order = append(order, s)
		}
	}
	x := uint64(1991)
	for i := len(order) - 1; i > 0; i-- {
		x = x*6364136223846793005 + 1442695040888963407
		j := int((x >> 33) % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}

	var l Log
	shards := make([]*Shard, len(counts))
	for s := range shards {
		shards[s] = l.Shard(s)
		if shards[s] != shards[0] || l.Stream(s) != Stream(shards[0]) {
			t.Fatalf("Shard(%d) is not the log's one appender", s)
		}
	}
	at := map[int]bool{len(order)/2 + 1: true}
	for _, n := range counts {
		at[n] = true
	}
	type snap struct {
		n      int
		chunks [][]Record
	}
	snaps := []snap{{0, l.snapshot()}}
	var flat []Record
	for i, s := range order {
		r := Record{Session: i, User: s, Op: OpRead, Path: fmt.Sprintf("/f%d", i), Bytes: int64(i), Start: float64(i)}
		shards[s].Append(r)
		flat = append(flat, r)
		if at[i+1] {
			snaps = append(snaps, snap{i + 1, l.snapshot()})
		}
	}

	if l.Len() != len(flat) {
		t.Fatalf("Len = %d, want %d", l.Len(), len(flat))
	}
	if got := l.Records(); !reflect.DeepEqual(got, flat) {
		t.Error("Records differs from the flat reference")
	}
	var each []Record
	l.Each(func(r *Record) { each = append(each, *r) })
	if !reflect.DeepEqual(each, flat) {
		t.Error("Each differs from the flat reference")
	}
	for _, s := range snaps {
		var prefix []Record
		for _, c := range s.chunks {
			prefix = append(prefix, c...)
		}
		if !slices.Equal(prefix, flat[:s.n]) {
			t.Errorf("snapshot saw %d records, want exactly the %d-record prefix", len(prefix), s.n)
		}
	}

	var got, want bytes.Buffer
	if err := l.WriteJSONL(&got); err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(&want)
	for i := range flat {
		if err := enc.Encode(&flat[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("WriteJSONL differs from the flat reference encoding")
	}
}

// BenchmarkLogAppend times Shard.Append into the growing list, the
// full-record log's per-op cost on the session hot path.
func BenchmarkLogAppend(b *testing.B) {
	var l Log
	r := Record{Session: 1, User: 0, UserType: "heavy", Op: OpRead, Path: "/u0/f0",
		Category: 2, Bytes: 4096, FileSize: 8192, Start: 10, Elapsed: 300}
	// Fill and drop a few maximum-size chunks first, so the timed appends
	// reuse heap the process has already touched rather than timing page
	// faults on fresh memory.
	for i := 0; i < 4*maxChunk; i++ {
		l.Shard(0).Append(r)
	}
	l.Reset()
	runtime.GC()
	s := l.Shard(0)
	b.ReportAllocs()
	for b.Loop() {
		s.Append(r)
	}
}
