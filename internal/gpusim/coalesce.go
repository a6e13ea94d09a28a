package gpusim

import "sort"

// WarpAccess describes one memory instruction executed by a full warp: the
// byte address touched by each active thread and the per-thread access width.
type WarpAccess struct {
	Addresses []int64 // one byte address per active thread
	Bytes     int     // access width per thread (4 for float, 8 for float2)
}

// Transactions returns the number of aligned memory transactions of size
// txBytes needed to serve the warp access.  This is the GPU coalescing rule:
// the addresses of the warp are mapped onto aligned segments and each
// distinct segment costs one transaction.
func (w WarpAccess) Transactions(txBytes int) int {
	if len(w.Addresses) == 0 || txBytes <= 0 {
		return 0
	}
	width := int64(w.Bytes)
	if width <= 0 {
		width = 4
	}
	seen := make(map[int64]struct{}, len(w.Addresses))
	for _, a := range w.Addresses {
		first := a / int64(txBytes)
		last := (a + width - 1) / int64(txBytes)
		for seg := first; seg <= last; seg++ {
			seen[seg] = struct{}{}
		}
	}
	return len(seen)
}

// UsefulBytes returns the number of bytes the warp actually consumes,
// counting overlapping thread accesses once.
func (w WarpAccess) UsefulBytes() int64 {
	if len(w.Addresses) == 0 {
		return 0
	}
	width := int64(w.Bytes)
	if width <= 0 {
		width = 4
	}
	addrs := make([]int64, len(w.Addresses))
	copy(addrs, w.Addresses)
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	var useful int64
	var curStart, curEnd int64
	started := false
	for _, a := range addrs {
		s, e := a, a+width
		if !started {
			curStart, curEnd, started = s, e, true
			continue
		}
		if s <= curEnd {
			if e > curEnd {
				curEnd = e
			}
			continue
		}
		useful += curEnd - curStart
		curStart, curEnd = s, e
	}
	if started {
		useful += curEnd - curStart
	}
	return useful
}

// Efficiency returns the coalescing efficiency of the access: the ratio of
// useful bytes to bytes moved by the transactions that serve it.  A perfectly
// coalesced float32 warp access returns 1.0; a fully scattered one on a
// 32-byte transaction device returns 4/32 = 0.125.
func (w WarpAccess) Efficiency(txBytes int) float64 {
	tx := w.Transactions(txBytes)
	if tx == 0 {
		return 1
	}
	moved := float64(tx * txBytes)
	useful := float64(w.UsefulBytes())
	if useful > moved {
		return 1
	}
	return useful / moved
}

// StridedWarp builds the address pattern of a warp whose threads access
// consecutive logical elements separated by strideElems elements of
// elemBytes bytes each, starting at base.  It is the pattern generated by
// thread t accessing A[base + t*stride].
func StridedWarp(base int64, strideElems, elemBytes, warpSize int) WarpAccess {
	addrs := make([]int64, warpSize)
	for t := 0; t < warpSize; t++ {
		addrs[t] = base + int64(t)*int64(strideElems)*int64(elemBytes)
	}
	return WarpAccess{Addresses: addrs, Bytes: elemBytes}
}
