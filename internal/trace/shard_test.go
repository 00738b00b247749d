package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

// TestShardWrapDefault pins the unreserved behavior: user indices beyond the
// default bound wrap onto existing shards instead of growing the table.
func TestShardWrapDefault(t *testing.T) {
	var l Log
	if got, want := l.Shard(defaultMaxShards+7), l.Shard(7); got != want {
		t.Error("unreserved log should wrap users past the default bound")
	}
}

// TestReserveLiftsShardBound is the >4096-user regression test: a reserved
// log gives every user of a five-digit population a distinct shard, appends
// stay lock-free, and iteration still merges back into insertion order.
func TestReserveLiftsShardBound(t *testing.T) {
	const users = 10_000 // > defaultMaxShards
	var l Log
	l.Reserve(users)
	lo, hi := l.Shard(7), l.Shard(defaultMaxShards+7)
	if lo == hi {
		t.Fatal("reserved log still wraps users past the default bound")
	}
	// Interleave appends across the two shards; insertion stamps must
	// restore the global order regardless of sharding.
	for i := 0; i < 6; i++ {
		s := lo
		if i%2 == 1 {
			s = hi
		}
		s.Append(Record{User: i, Op: OpRead})
	}
	recs := l.Records()
	if len(recs) != 6 {
		t.Fatalf("Len = %d, want 6", len(recs))
	}
	for i, r := range recs {
		if r.User != i {
			t.Fatalf("record %d has user %d: insertion order lost", i, r.User)
		}
	}
	// The table grows on demand: only the touched span is allocated.
	l.mu.Lock()
	n := len(l.shards)
	l.mu.Unlock()
	if n > defaultMaxShards+8 {
		t.Errorf("table has %d shards; Reserve should size the bound, not the table", n)
	}

	// Reserve must be monotone: a later, smaller reservation cannot shrink
	// the bound and re-alias existing shards.
	l.Reserve(100)
	if l.Shard(defaultMaxShards+7) != hi {
		t.Error("smaller Reserve re-aliased an existing shard")
	}
	// Reset keeps the lifted bound for the next run of the same spec.
	l.Reset()
	if l.Shard(defaultMaxShards+7) == l.Shard(7) {
		t.Error("Reset dropped the reserved bound")
	}
}

// chunkCounts are per-shard record counts straddling every chunk boundary
// a shard crosses: empty, one record, each capacity −1/0/+1, and several
// maximum-size chunks.
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

// TestChunkedShardsMatchFlatLog appends to many shards in a pseudo-random
// interleaving and checks every reader against a flat reference slice in
// insertion order, plus a snapshot taken halfway that must see exactly its
// prefix while appends continue.
func TestChunkedShardsMatchFlatLog(t *testing.T) {
	counts := chunkCounts()
	var order []int // shard of each append, shuffled below
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
	}
	var flat []Record
	var mid view
	for i, s := range order {
		r := Record{Session: i, User: s, Op: OpRead, Path: fmt.Sprintf("/f%d", i), Bytes: int64(i), Start: float64(i)}
		shards[s].Append(r)
		flat = append(flat, r)
		if i == len(order)/2 {
			mid = l.snapshot()
		}
	}

	if l.Len() != len(flat) {
		t.Fatalf("Len = %d, want %d", l.Len(), len(flat))
	}
	for s, n := range counts {
		if shards[s].Len() != n {
			t.Errorf("shard %d Len = %d, want %d", s, shards[s].Len(), n)
		}
	}
	if got := l.Records(); !reflect.DeepEqual(got, flat) {
		t.Error("Records differs from the flat reference")
	}
	var each []Record
	l.Each(func(r *Record) { each = append(each, *r) })
	if !reflect.DeepEqual(each, flat) {
		t.Error("Each differs from the flat reference")
	}
	var prefix []Record
	mid.each(func(r *Record) { prefix = append(prefix, *r) })
	if !reflect.DeepEqual(prefix, flat[:len(order)/2+1]) {
		t.Errorf("snapshot saw %d records, want exactly the %d-record prefix", len(prefix), len(order)/2+1)
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

// BenchmarkLogAppend times Shard.Append into one growing shard, the
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
