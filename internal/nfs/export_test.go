package nfs

import "uswg/internal/vfs"

// SetupAttrs returns how many attribute-cache entries each setup client
// behind a SetupFS mount holds, in island order.
func SetupAttrs(mount vfs.FileSystem) []int {
	r := mount.(*routerFS)
	n := make([]int, len(r.clients))
	for i, c := range r.clients {
		n[i] = len(c.attrs)
	}
	return n
}

// Resident reports how many private clients the fleet holds (0 with a
// pool).
func (f *Fleet) Resident() int { return len(f.private) }
