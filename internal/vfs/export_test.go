package vfs

// TotalBytes returns the sum of all regular file sizes reachable from the
// root: the footprint of the synthetic file system.
func (fs *MemFS) TotalBytes() int64 { return fs.sumSizes(rootIno) }

func (fs *MemFS) sumSizes(ino uint32) int64 {
	n := fs.node(ino)
	if !n.dir {
		return n.size
	}
	var total int64
	for c := n.first; c != 0; c = fs.node(c).next {
		total += fs.sumSizes(c)
	}
	return total
}
