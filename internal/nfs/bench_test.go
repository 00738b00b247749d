package nfs

import (
	"testing"

	"uswg/internal/vfs"
)

// BenchmarkClientRead times one 4 KiB read of blocks held in the client page
// cache, through a write-behind client on a synchronous clock: the system
// call's CPU hold, the descriptor advance in the namespace shadow, and the
// page walk's memory-copy hold. The offset is rewound through the shadow,
// which charges nothing, between reads.
func BenchmarkClientRead(b *testing.B) {
	c := newSyncClient(b, cachedClientConfig())
	ctx := &vfs.ManualClock{}
	fs := vfs.Sync{FS: c}
	fd, err := fs.Create(ctx, "/f")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := fs.Write(ctx, fd, 8192); err != nil {
		b.Fatal(err)
	}
	if err := fs.Close(ctx, fd); err != nil {
		b.Fatal(err)
	}
	if fd, err = fs.Open(ctx, "/f", vfs.ReadOnly); err != nil {
		b.Fatal(err)
	}
	shadow := c.backing.Bare()
	onN := func(n int64, err error) {
		if err != nil || n != 4096 {
			b.Fatalf("read = %d, %v", n, err)
		}
	}
	rpcs := c.RPCs()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := shadow.Seek(fd, 0, vfs.SeekStart, c); err != nil {
			b.Fatal(err)
		}
		c.Read(ctx, fd, 4096, onN)
	}
	if c.RPCs() != rpcs {
		b.Fatalf("cached reads issued %d RPCs", c.RPCs()-rpcs)
	}
}
