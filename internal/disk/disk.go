// Package disk models the service time of a disk drive of the thesis era
// (the SUN 4/490 file server's SCSI disks): a seek, half a rotation, and a
// per-block transfer. The model is deterministic — response-time variance in
// the simulated system comes from cache hits/misses and queueing, which is
// also where it came from on the real hardware. It is a DES-stage component
// of the pipeline: the slowest of the three queueing points (wire, nfsd
// pool, disk) behind the measured response times.
package disk

import "fmt"

// Model describes a disk. All times are in microseconds.
type Model struct {
	// SeekTime is the average seek time applied to non-sequential accesses.
	SeekTime float64
	// HalfRotation is the average rotational latency (half a revolution).
	HalfRotation float64
	// TransferPerBlock is the media transfer time for one block.
	TransferPerBlock float64
	// BlockSize is the disk block size in bytes.
	BlockSize int64
}

// Default returns parameters resembling a late-1980s server disk:
// 16 ms average seek, 3600 rpm (8.3 ms half rotation), 1.25 MB/s media rate,
// 4 KiB blocks (3.3 ms per block).
func Default() Model {
	return Model{
		SeekTime:         16000,
		HalfRotation:     8300,
		TransferPerBlock: 3300,
		BlockSize:        4096,
	}
}

// Validate reports whether the model is usable.
func (m Model) Validate() error {
	if m.BlockSize <= 0 {
		return fmt.Errorf("disk: block size %d must be positive", m.BlockSize)
	}
	if m.SeekTime < 0 || m.HalfRotation < 0 || m.TransferPerBlock < 0 {
		return fmt.Errorf("disk: negative timing parameter in %+v", m)
	}
	return nil
}

// Blocks returns the number of blocks covering a byte range of length n
// starting at offset off.
func (m Model) Blocks(off, n int64) int64 {
	if n <= 0 {
		return 0
	}
	first := off / m.BlockSize
	last := (off + n - 1) / m.BlockSize
	return last - first + 1
}

// ServiceTime returns the time to transfer nblocks, paying seek and
// rotational positioning only when the access is not sequential with the
// previous one.
func (m Model) ServiceTime(nblocks int64, sequential bool) float64 {
	if nblocks <= 0 {
		return 0
	}
	t := float64(nblocks) * m.TransferPerBlock
	if !sequential {
		t += m.SeekTime + m.HalfRotation
	}
	return t
}

// Arm tracks head position so callers can determine whether an access is
// sequential. It is a tiny amount of state shared by all requests to one
// spindle; synchronization is provided by the DES scheduler (one process
// runs at a time).
type Arm struct {
	model     Model
	nextBlock int64
	haveBlock bool
}

// NewArm returns an arm over the given disk model.
func NewArm(m Model) *Arm {
	return &Arm{model: m}
}

// Access returns the service time for reading or writing n bytes at offset
// off of the file whose first block is fileBase blocks from other files
// (callers map file identity into a distinct base so different files are
// never "sequential" with each other).
func (a *Arm) Access(fileBase, off, n int64) float64 {
	if n <= 0 {
		return 0
	}
	first := fileBase + off/a.model.BlockSize
	nblocks := a.model.Blocks(off, n)
	seq := a.haveBlock && first == a.nextBlock
	a.nextBlock = first + nblocks
	a.haveBlock = true
	return a.model.ServiceTime(nblocks, seq)
}
