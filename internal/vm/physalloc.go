package vm

import "fmt"

// PhysAllocator hands out physical page frames from a contiguous
// physical range. It is a simple free-list allocator: frames are
// returned most-recently-freed first.
//
// The GPU-local fault handler partitions the physical space across SMs
// (Partition) so that concurrent handlers allocate without contention,
// mirroring the paper's "address space partitioning techniques"
// (Section 4.2).
type PhysAllocator struct {
	base      uint64
	frameSize uint64
	nextFresh uint64 // next never-allocated frame
	limit     uint64 // end of range (exclusive)
	free      []uint64
	allocated int
}

// NewPhysAllocator returns an allocator over [base, base+size) with the
// given frame (page) size.
func NewPhysAllocator(base, size uint64, frameSize int) (*PhysAllocator, error) {
	if frameSize <= 0 || frameSize&(frameSize-1) != 0 {
		return nil, fmt.Errorf("vm: frame size %d not a positive power of two", frameSize)
	}
	if size == 0 || size%uint64(frameSize) != 0 {
		return nil, fmt.Errorf("vm: range size %d not a positive multiple of frame size %d", size, frameSize)
	}
	return &PhysAllocator{
		base:      base,
		frameSize: uint64(frameSize),
		nextFresh: base,
		limit:     base + size,
	}, nil
}

// Allocated returns the number of live frames.
func (a *PhysAllocator) Allocated() int { return a.allocated }

// FreeFrames returns how many frames remain available.
func (a *PhysAllocator) FreeFrames() int {
	fresh := int((a.limit - a.nextFresh) / a.frameSize)
	return fresh + len(a.free)
}

// Alloc returns a frame address, or an error when physical memory is
// exhausted.
func (a *PhysAllocator) Alloc() (uint64, error) {
	if n := len(a.free); n > 0 {
		f := a.free[n-1]
		a.free = a.free[:n-1]
		a.allocated++
		return f, nil
	}
	if a.nextFresh >= a.limit {
		return 0, fmt.Errorf("vm: out of physical memory (%d frames in use)", a.allocated)
	}
	f := a.nextFresh
	a.nextFresh += a.frameSize
	a.allocated++
	return f, nil
}

// Free returns a frame to the allocator. Freeing an address outside the
// range or not frame-aligned is an error.
func (a *PhysAllocator) Free(frame uint64) error {
	if frame < a.base || frame >= a.limit || (frame-a.base)%a.frameSize != 0 {
		return fmt.Errorf("vm: free of invalid frame %#x", frame)
	}
	a.free = append(a.free, frame)
	a.allocated--
	return nil
}

// Exhaust consumes free frames until at most leave remain, returning
// how many were consumed. Chaos plans use it to drive the simulator
// into its out-of-memory paths; the consumed frames are never freed.
func (a *PhysAllocator) Exhaust(leave int) int {
	if leave < 0 {
		leave = 0
	}
	taken := 0
	for a.FreeFrames() > leave {
		if _, err := a.Alloc(); err != nil {
			break
		}
		taken++
	}
	return taken
}

// Partition splits the remaining fresh space into n equal sub-allocators
// (already-freed frames stay with the parent). Used to give each SM its
// own contention-free pool for local fault handling.
func (a *PhysAllocator) Partition(n int) ([]*PhysAllocator, error) {
	if n <= 0 {
		return nil, fmt.Errorf("vm: partition count %d", n)
	}
	framesLeft := (a.limit - a.nextFresh) / a.frameSize
	per := framesLeft / uint64(n)
	if per == 0 {
		return nil, fmt.Errorf("vm: %d frames cannot be split %d ways", framesLeft, n)
	}
	parts := make([]*PhysAllocator, n)
	cursor := a.nextFresh
	for i := 0; i < n; i++ {
		size := per * a.frameSize
		p, err := NewPhysAllocator(cursor, size, int(a.frameSize))
		if err != nil {
			return nil, err
		}
		parts[i] = p
		cursor += size
	}
	a.nextFresh = a.limit // parent's fresh space fully handed out
	return parts, nil
}
