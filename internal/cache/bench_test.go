package cache

import (
	"math/rand"
	"testing"
)

// The cases cover the two caches the simulation builds: the NFS server's
// block cache (2,048 blocks) and a client's page cache (64 blocks), over
// many small files, plus a server-sized cache where one file holds 256
// blocks, the longest chain a lookup or an invalidation walks. Case names
// end in a letter so benchgate's -GOMAXPROCS suffix strip leaves them whole.
var lruCases = []struct {
	name     string
	capacity int
	bigFile  int64 // blocks of file 0, or 0 for small files only
}{
	{"server", 2048, 0},
	{"client", 64, 0},
	{"bigfile", 2048, 256},
}

// fileBlocks returns the block count of a file: small files hold 1-8
// blocks, file 0 holds bigFile blocks when set.
func fileBlocks(r *rand.Rand, file uint64, bigFile int64) int64 {
	if file == 0 && bigFile > 0 {
		return bigFile
	}
	return 1 + r.Int63n(8)
}

// BenchmarkLRUAccess times LRU.Access on a block stream shaped like
// sequential file access: whole files, read block by block, picked at
// random from a working set of twice the cache. One op is one pass over the
// stream; ns/access is the cost of a single Access.
func BenchmarkLRUAccess(b *testing.B) {
	for _, tc := range lruCases {
		b.Run(tc.name, func(b *testing.B) {
			r := rand.New(rand.NewSource(1991))
			files := uint64(tc.capacity / 2) // mean 4.5 blocks a file: ~2x capacity
			sizes := make([]int64, files)
			for f := range sizes {
				sizes[f] = fileBlocks(r, uint64(f), tc.bigFile)
			}
			var stream []BlockID
			for len(stream) < 4096 {
				f := uint64(r.Int63n(int64(files)))
				if tc.bigFile > 0 && r.Intn(4) == 0 {
					f = 0
				}
				for blk := int64(0); blk < sizes[f]; blk++ {
					stream = append(stream, BlockID{File: f, Block: blk})
				}
			}
			c := NewLRU(tc.capacity)
			for _, id := range stream { // warm: fill the cache
				c.Access(id)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, id := range stream {
					c.Access(id)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(stream)), "ns/access")
		})
	}
}

// BenchmarkLRUInvalidateFile times LRU.InvalidateFile in a full cache, the
// way truncate and unlink reach it: drop one file's blocks, then rewrite
// them (the rewrite refills the freed slots without evicting). One op
// invalidates and refills 64 files in turn (the big file alone in the
// bigfile case); ns/file is the cost of one invalidate and its refill.
func BenchmarkLRUInvalidateFile(b *testing.B) {
	for _, tc := range lruCases {
		b.Run(tc.name, func(b *testing.B) {
			r := rand.New(rand.NewSource(1991))
			c := NewLRU(tc.capacity)
			var sizes []int64
			for used := int64(0); ; {
				n := fileBlocks(r, uint64(len(sizes)), tc.bigFile)
				if used+n > int64(tc.capacity) {
					break
				}
				used += n
				sizes = append(sizes, n)
			}
			for f, n := range sizes {
				for blk := int64(0); blk < n; blk++ {
					c.Access(BlockID{File: uint64(f), Block: blk})
				}
			}
			victims := make([]uint64, 0, 64)
			if tc.bigFile > 0 {
				victims = append(victims, 0)
			} else {
				for f := 0; f < 64; f++ {
					victims = append(victims, uint64(f*len(sizes)/64))
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, f := range victims {
					c.InvalidateFile(f)
					for blk := int64(0); blk < sizes[f]; blk++ {
						c.Access(BlockID{File: f, Block: blk})
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(victims)), "ns/file")
		})
	}
}
