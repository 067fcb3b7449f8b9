package fabric

import (
	"testing"
	"unsafe"
)

// TestPacketLayout guards the packet's cache footprint on the per-hop
// path. Every field the fabric reads or writes at a hop must end within
// the struct's first 64 bytes, so that a hop touches one cache line of
// the packet, and the struct must stay within the allocator's 128-byte
// size class (at 136 bytes it took 144). A field added later goes after
// the hot ones; if it cannot fit in 128 bytes, measure the cost first.
func TestPacketLayout(t *testing.T) {
	var p Packet
	if size := unsafe.Sizeof(p); size > 128 {
		t.Errorf("Packet is %d bytes, want at most 128", size)
	}
	hot := []struct {
		name string
		end  uintptr
	}{
		{"Size", unsafe.Offsetof(p.Size) + unsafe.Sizeof(p.Size)},
		{"enqAt", unsafe.Offsetof(p.enqAt) + unsafe.Sizeof(p.enqAt)},
		{"Hash", unsafe.Offsetof(p.Hash) + unsafe.Sizeof(p.Hash)},
		{"DstLeafIdx", unsafe.Offsetof(p.DstLeafIdx) + unsafe.Sizeof(p.DstLeafIdx)},
		{"Dst", unsafe.Offsetof(p.Dst) + unsafe.Sizeof(p.Dst)},
		{"DstLeaf", unsafe.Offsetof(p.DstLeaf) + unsafe.Sizeof(p.DstLeaf)},
		{"PathIdx", unsafe.Offsetof(p.PathIdx) + unsafe.Sizeof(p.PathIdx)},
		{"Hops", unsafe.Offsetof(p.Hops) + unsafe.Sizeof(p.Hops)},
		{"Kind", unsafe.Offsetof(p.Kind) + unsafe.Sizeof(p.Kind)},
		{"poolState", unsafe.Offsetof(p.poolState) + unsafe.Sizeof(p.poolState)},
		{"Path", unsafe.Offsetof(p.Path) + unsafe.Sizeof(p.Path)},
	}
	for _, f := range hot {
		if f.end > 64 {
			t.Errorf("per-hop field %s ends at byte %d, past the first 64", f.name, f.end)
		}
	}
}
