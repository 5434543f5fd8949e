package vm

import "gpues/internal/ckpt"

// SaveState serializes the allocator: the fresh-frame cursor, the
// allocation count and the free list in its insertion order (which is
// deterministic — frames are only freed by simulated events).
func (a *PhysAllocator) SaveState(w *ckpt.Writer) {
	w.U64(a.base)
	w.U64(a.frameSize)
	w.U64(a.limit)
	w.U64(a.nextFresh)
	w.Int(a.allocated)
	w.Int(len(a.free))
	for _, f := range a.free {
		w.U64(f)
	}
}

// Walk visits every leaf entry of the table in ascending virtual
// address order — the radix structure makes index order address order,
// so iteration is deterministic without sorting.
func (pt *PageTable) Walk(fn func(va uint64, e PTE)) {
	pt.walkNode(&pt.root, 0, 0, fn)
}

func (pt *PageTable) walkNode(n *ptNode, level int, vpn uint64, fn func(va uint64, e PTE)) {
	if level == numLevels-1 {
		for i := range n.entries {
			e := n.entries[i]
			if e.State == PageUnmapped && e.PA == 0 && !e.Dirty {
				continue
			}
			fn(((vpn<<levelBits)|uint64(i))<<pt.pageBits, e)
		}
		return
	}
	for i, c := range n.children {
		if c != nil {
			pt.walkNode(c, level+1, (vpn<<levelBits)|uint64(i), fn)
		}
	}
}

// digest folds every live entry (VA, state, frame, dirty bit) into one
// fingerprint. Tables can map millions of pages, so checkpoints carry
// this digest plus the mapped count instead of the full table; the
// table itself is rebuilt by replay on restore.
func (pt *PageTable) digest() uint64 {
	h := ckpt.NewHasher()
	pt.Walk(func(va uint64, e PTE) {
		h.U64(va)
		h.U64(uint64(e.State))
		h.U64(e.PA)
		if e.Dirty {
			h.U64(1)
		} else {
			h.U64(0)
		}
	})
	return h.Sum()
}

// SaveState serializes the address space: both page tables (mapped
// count + content digest), both physical allocators and the registered
// regions.
func (as *AddressSpace) SaveState(w *ckpt.Writer) {
	w.Int(as.GPUTable.MappedPages())
	w.U64(as.GPUTable.digest())
	w.Int(as.CPUTable.MappedPages())
	w.U64(as.CPUTable.digest())
	as.GPUPhys.SaveState(w)
	as.CPUPhys.SaveState(w)
	w.Int(len(as.regions))
	for i := range as.regions {
		reg := &as.regions[i]
		w.String(reg.Name)
		w.U64(reg.Base)
		w.U64(reg.Size)
		w.U64(uint64(reg.Kind))
	}
}
