package gpusim

import (
	"fmt"

	"memcnn/internal/tensor"
)

// 4-D data-layout transformation kernels (Section IV.C, Fig. 7).  Moving a
// tensor between CHWN and NCHW is a transpose of the flattened
// [C·H·W] × [N] matrix; the three modelled variants are the paper's naive
// kernel, the flatten + shared-memory-tile kernel ("Opt1") and the float2
// vectorised kernel ("Opt2").
//
// The functional transformation itself is tensor.ConvertInto; these models
// only describe the GPU cost of performing it.

// TransformMethod identifies one of the modelled transformation kernels.
type TransformMethod int

// The transformation kernels compared in Fig. 11.
const (
	// TransformNaive maps a 4-D thread hierarchy directly onto the tensor:
	// reads are coalesced but the writes of a warp are strided by C·H·W
	// elements (Fig. 7a).
	TransformNaive TransformMethod = iota
	// TransformTiled flattens C,H,W into one dimension and stages 32×32
	// tiles through shared memory so that both the loads and the stores are
	// coalesced (Fig. 7b, "Opt1").
	TransformTiled
	// TransformVectorized additionally packs two floats into a float2 and
	// uses the 8-byte shared-memory bank mode, raising the achieved fraction
	// of peak bandwidth ("Opt2").  It requires N >= 64.
	TransformVectorized
)

// String names the method.
func (m TransformMethod) String() string {
	switch m {
	case TransformNaive:
		return "naive"
	case TransformTiled:
		return "tiled (Opt1)"
	case TransformVectorized:
		return "vectorized (Opt2)"
	default:
		return fmt.Sprintf("TransformMethod(%d)", int(m))
	}
}

// Achievable fraction of the device's effective bandwidth for the two
// optimised kernels.  Opt1 runs the shared-memory transpose in 4-byte bank
// mode and loses some throughput to the staging and synchronisation; Opt2's
// float2 accesses double the bytes per transaction and reach 97–98% of the
// effective bandwidth (the paper measures 229.5 GB/s of 235 GB/s on CONV6).
const (
	transformTiledBWFraction      = 0.87
	transformVectorizedBWFraction = 0.975
	// TransformVectorizedMinBatch is the smallest batch size the vectorised
	// kernel supports (it packs pairs of images into float2 values).
	TransformVectorizedMinBatch = 64
)

// TransformApplicable reports whether the method can be used for the given
// shape (the vectorised kernel needs N >= 64).
func TransformApplicable(m TransformMethod, shape tensor.Shape) bool {
	if m == TransformVectorized {
		return shape.N >= TransformVectorizedMinBatch
	}
	return true
}

// TransformCost models moving one tensor of the given shape from layout
// `from` to layout `to` with the selected kernel.  Transforming to the same
// layout costs nothing.
func TransformCost(d *Device, shape tensor.Shape, from, to tensor.Layout, m TransformMethod) (KernelStats, error) {
	if !from.Valid() || !to.Valid() {
		return KernelStats{}, fmt.Errorf("gpusim: invalid layouts %v -> %v", from, to)
	}
	if !shape.Valid() {
		return KernelStats{}, fmt.Errorf("gpusim: invalid shape %v", shape)
	}
	if !TransformApplicable(m, shape) {
		return KernelStats{}, fmt.Errorf("gpusim: %v transform not applicable to shape %v (needs N >= %d)",
			m, shape, TransformVectorizedMinBatch)
	}
	name := fmt.Sprintf("transform %v->%v %v (%s)", from, to, shape, m)
	if from == to {
		return KernelStats{Name: name, Launches: 0, ComputeEfficiency: 1}, nil
	}
	bytes := float64(shape.Bytes())

	var read, write float64
	var regs, smem, threads int
	switch m {
	case TransformNaive:
		// Reads follow the source's innermost dimension (coalesced); the
		// writes of a warp land one element into each destination row, i.e.
		// strided by the destination stride of the source's innermost
		// logical dimension.
		writeStride := destStrideOfSourceInnermost(shape, from, to)
		warp := StridedWarp(0, writeStride, 4, d.WarpSize)
		eff := warp.Efficiency(d.TransactionBytes)
		read = bytes
		write = bytes / eff
		regs, smem, threads = 16, 0, 256
	case TransformTiled:
		read = bytes / transformTiledBWFraction
		write = bytes / transformTiledBWFraction
		regs, smem, threads = 28, 33*32*4*2, 256 // padded 32x33 float tile (two buffers worth)
	case TransformVectorized:
		read = bytes / transformVectorizedBWFraction
		write = bytes / transformVectorizedBWFraction
		regs, smem, threads = 32, 33*32*8, 256 // padded float2 tile
	}
	elems := shape.Elems()
	return KernelStats{
		Name:              name,
		GridBlocks:        ceilDiv(elems, 1024),
		Block:             BlockResources{ThreadsPerBlock: threads, RegsPerThread: regs, SharedMemPerBlock: smem},
		Launches:          1,
		FLOPs:             0,
		ComputeEfficiency: 1,
		DRAMReadBytes:     read,
		DRAMWriteBytes:    write,
		UsefulReadBytes:   bytes,
		UsefulWriteBytes:  bytes,
	}, nil
}

// destStrideOfSourceInnermost returns the element stride, in the destination
// layout, of the logical dimension that is innermost in the source layout.
// It is the distance between the writes of two adjacent threads of the naive
// kernel.
func destStrideOfSourceInnermost(shape tensor.Shape, from, to tensor.Layout) int {
	dn, _, _, dw := shape.Strides(to)
	if from == tensor.CHWN {
		return dn
	}
	return dw
}

// BestTransform returns the fastest applicable transformation kernel for the
// shape, the policy the integrated framework uses when it has to move a
// tensor between layers with different preferred layouts.
func BestTransform(d *Device, shape tensor.Shape, from, to tensor.Layout) (KernelStats, TransformMethod, error) {
	best := TransformTiled
	bestStats, err := TransformCost(d, shape, from, to, TransformTiled)
	if err != nil {
		return KernelStats{}, 0, err
	}
	if TransformApplicable(TransformVectorized, shape) {
		vec, err := TransformCost(d, shape, from, to, TransformVectorized)
		if err == nil && EstimateTime(d, vec).TotalUS < EstimateTime(d, bestStats).TotalUS {
			best, bestStats = TransformVectorized, vec
		}
	}
	return bestStats, best, nil
}
