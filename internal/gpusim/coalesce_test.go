package gpusim

import (
	"testing"
	"testing/quick"
)

func TestCoalescedWarpIsOneCacheLine(t *testing.T) {
	// 32 threads reading consecutive float32s: 128 useful bytes.
	w := StridedWarp(0, 1, 4, 32)
	if got := w.Transactions(32); got != 4 {
		t.Errorf("coalesced float warp: %d 32B transactions, want 4", got)
	}
	if got := w.Transactions(128); got != 1 {
		t.Errorf("coalesced float warp: %d 128B transactions, want 1", got)
	}
	if eff := w.Efficiency(32); eff != 1 {
		t.Errorf("coalesced efficiency = %v, want 1", eff)
	}
}

func TestFullyStridedWarpIsUncoalesced(t *testing.T) {
	// Threads separated by 64 floats (256 bytes): each lands in its own
	// 32-byte segment, the pattern of NCHW pooling across feature-map rows.
	w := StridedWarp(0, 64, 4, 32)
	if got := w.Transactions(32); got != 32 {
		t.Errorf("strided warp: %d transactions, want 32", got)
	}
	if eff := w.Efficiency(32); eff != 4.0/32.0 {
		t.Errorf("strided efficiency = %v, want 0.125", eff)
	}
}

func TestModeratelyStridedWarp(t *testing.T) {
	// Stride 2 floats (8 bytes): half the fetched bytes are useful.
	w := StridedWarp(0, 2, 4, 32)
	if got := w.Transactions(32); got != 8 {
		t.Errorf("stride-2 warp: %d transactions, want 8", got)
	}
	if eff := w.Efficiency(32); eff != 0.5 {
		t.Errorf("stride-2 efficiency = %v, want 0.5", eff)
	}
}

func TestVectorizedWarp(t *testing.T) {
	// float2 accesses, consecutive: 32 threads * 8 bytes = 256 bytes.
	w := StridedWarp(0, 1, 8, 32)
	if got := w.Transactions(32); got != 8 {
		t.Errorf("float2 warp: %d transactions, want 8", got)
	}
	if eff := w.Efficiency(32); eff != 1 {
		t.Errorf("float2 efficiency = %v, want 1", eff)
	}
}

func TestUnalignedWarpCostsOneExtraTransaction(t *testing.T) {
	aligned := StridedWarp(0, 1, 4, 32)
	unaligned := StridedWarp(4, 1, 4, 32) // shifted by one float
	if unaligned.Transactions(128) != aligned.Transactions(128)+1 {
		t.Errorf("unaligned 128B transactions = %d, want %d",
			unaligned.Transactions(128), aligned.Transactions(128)+1)
	}
}

func TestBroadcastWarp(t *testing.T) {
	// All threads read the same address (filter broadcast): one transaction.
	addrs := make([]int64, 32)
	w := WarpAccess{Addresses: addrs, Bytes: 4}
	if got := w.Transactions(32); got != 1 {
		t.Errorf("broadcast warp: %d transactions, want 1", got)
	}
	if got := w.UsefulBytes(); got != 4 {
		t.Errorf("broadcast useful bytes = %d, want 4", got)
	}
}

func TestEmptyWarp(t *testing.T) {
	w := WarpAccess{}
	if w.Transactions(32) != 0 {
		t.Error("empty warp should need no transactions")
	}
	if w.UsefulBytes() != 0 {
		t.Error("empty warp has no useful bytes")
	}
	if w.Efficiency(32) != 1 {
		t.Error("empty warp efficiency defined as 1")
	}
}

func TestWarpAccessDefaultsWidth(t *testing.T) {
	w := WarpAccess{Addresses: []int64{0, 4, 8}, Bytes: 0}
	if w.UsefulBytes() != 12 {
		t.Errorf("default width useful bytes = %d, want 12", w.UsefulBytes())
	}
}

// Property: transactions*txBytes always covers the useful bytes, and
// efficiency never exceeds 1.
func TestCoalesceCoversUsefulBytesQuick(t *testing.T) {
	f := func(raw []uint16, widthSel bool) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 32 {
			raw = raw[:32]
		}
		width := 4
		if widthSel {
			width = 8
		}
		addrs := make([]int64, len(raw))
		for i, r := range raw {
			addrs[i] = int64(r) * 4
		}
		w := WarpAccess{Addresses: addrs, Bytes: width}
		moved := int64(w.Transactions(32) * 32)
		if moved < w.UsefulBytes() {
			return false
		}
		return w.Efficiency(32) <= 1.0000001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Property: increasing the stride never decreases the transaction count.
func TestStrideMonotonicityQuick(t *testing.T) {
	f := func(s1, s2 uint8) bool {
		a, b := int(s1%65), int(s2%65)
		if a > b {
			a, b = b, a
		}
		if a == 0 {
			a = 1
		}
		if b == 0 {
			b = 1
		}
		wa := StridedWarp(0, a, 4, 32)
		wb := StridedWarp(0, b, 4, 32)
		return wa.Transactions(32) <= wb.Transactions(32)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
