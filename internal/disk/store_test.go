package disk

import (
	"testing"

	"uswg/internal/cache"
	"uswg/internal/sim"
)

// TestStoreTouch is the stage's per-block rule under both write policies:
// a read hit stays in the cache and a read miss goes to disk, and a write
// installs its block and goes to disk only under write-through. Every touch
// leaves the block cached.
func TestStoreTouch(t *testing.T) {
	for _, tc := range []struct {
		writeThrough, write, cached bool
		toDisk                      bool
	}{
		{false, false, false, true}, // read miss
		{false, false, true, false}, // read hit
		{false, true, false, false}, // write-behind absorbs a new block
		{false, true, true, false},  // and a cached one
		{true, false, false, true},
		{true, false, true, false},
		{true, true, false, true}, // write-through sends every written block
		{true, true, true, true},
	} {
		s := NewStore(sim.NewEnv(), Default(), 8, tc.writeThrough)
		if tc.cached {
			s.Touch(3, 5, false)
		}
		if got := s.Touch(3, 5, tc.write); got != tc.toDisk {
			t.Errorf("write-through %v, write %v, cached %v: Touch = %v, want %v", tc.writeThrough, tc.write, tc.cached, got, tc.toDisk)
		}
		if !s.Cache().Contains(cache.BlockID{File: 3, Block: 5}) {
			t.Errorf("write-through %v, write %v, cached %v: the block is not cached after its touch", tc.writeThrough, tc.write, tc.cached)
		}
	}
}

// TestStoreServiceSequentialWithinInode: a pass over the blocks that follow
// the last pass on the same inode pays transfer only; any other pass on
// that inode pays positioning too.
func TestStoreServiceSequentialWithinInode(t *testing.T) {
	m := Model{SeekTime: 1000, HalfRotation: 500, TransferPerBlock: 100, BlockSize: 4096}
	s := NewStore(sim.NewEnv(), m, 0, true)
	if got := s.Service(7, 10, 3); got != 1800 {
		t.Errorf("first pass = %v, want positioning and 3 blocks (1800)", got)
	}
	if got := s.Service(7, 13, 2); got != 200 {
		t.Errorf("pass over the next blocks = %v, want 2 blocks sequential (200)", got)
	}
	if got := s.Service(7, 16, 1); got != 1600 {
		t.Errorf("pass that skips a block = %v, want positioning and 1 block (1600)", got)
	}
}

// TestStoreServiceAdjacentInodeNeverSequential: after a pass on one
// inode, no block of the next or the previous inode is sequential, for
// files under 2^20 blocks. Each sweep starts from a pass that a narrower
// spacing of files would make sequential with some block of the other
// inode, so a spacing below 2^20 fails it.
func TestStoreServiceAdjacentInodeNeverSequential(t *testing.T) {
	m := Model{SeekTime: 1000, HalfRotation: 500, TransferPerBlock: 100, BlockSize: 4096}
	const span = 1 << 20
	s := NewStore(sim.NewEnv(), m, 0, true)
	for b := int64(0); b < span-1; b++ {
		s.Service(1, span-2, 1) // the last block of a file of 2^20-1 blocks
		if got := s.Service(2, b, 1); got != 1600 {
			t.Fatalf("inode 2's block %d after inode 1's last = %v, want positioning (1600)", b, got)
		}
		s.Service(2, 0, 1)
		if got := s.Service(1, b, 1); got != 1600 {
			t.Fatalf("inode 1's block %d after inode 2's first = %v, want positioning (1600)", b, got)
		}
	}
}
