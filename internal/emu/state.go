package emu

import (
	"sort"

	"gpues/internal/ckpt"
)

// SaveState serializes the sparse memory as a fingerprint: allocated
// bytes, chunk count, and a digest over every chunk's key and contents
// in ascending key order. Benchmark footprints reach hundreds of MiB,
// so checkpoints carry the digest and the contents are rebuilt by
// replay on restore.
func (m *Memory) SaveState(w *ckpt.Writer) {
	w.Int(m.allocated)
	w.Int(len(m.chunks))
	w.U64(m.digest())
}

func (m *Memory) digest() uint64 {
	keys := make([]uint64, 0, len(m.chunks))
	for k := range m.chunks {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	h := ckpt.NewHasher()
	for _, k := range keys {
		h.U64(k)
		h.Bytes(m.chunks[k])
	}
	return h.Sum()
}
