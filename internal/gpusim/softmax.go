package gpusim

import (
	"fmt"

	"memcnn/internal/kernels"
)

// Softmax (classifier) cost models, Section V.B.  The baseline libraries
// implement the five algorithm steps (max, shift, exp, sum, normalise) as
// five separate kernels whose intermediate matrices round-trip through global
// memory, and parallelise only the batch loop — for a batch of 128 images
// that is 128 threads, far too few to hide DRAM latency.  The optimised
// kernel fuses the five steps into one kernel and parallelises the inner
// (category) loops with a per-block reduction.

// SoftmaxImpl identifies one of the modelled softmax implementations.
type SoftmaxImpl int

// The softmax implementations compared in Fig. 13 and the ablation study.
const (
	// SoftmaxThreadPerImage is the Caffe / cuda-convnet baseline: five
	// kernels, one thread per image, sequential inner loops.
	SoftmaxThreadPerImage SoftmaxImpl = iota
	// SoftmaxBlockPerImage is the cuDNN-style baseline: still multiple
	// kernels and intermediate round trips, but a thread block per image.
	SoftmaxBlockPerImage
	// SoftmaxFused applies kernel fusion only: one kernel, intermediates in
	// registers/shared memory, but still one thread per image.
	SoftmaxFused
	// SoftmaxFusedParallel is the paper's full optimisation: fusion plus
	// parallelised inner loops (a block per image with shared-memory
	// reductions).
	SoftmaxFusedParallel
)

// String names the implementation.
func (i SoftmaxImpl) String() string {
	switch i {
	case SoftmaxThreadPerImage:
		return "baseline-thread-per-image"
	case SoftmaxBlockPerImage:
		return "baseline-block-per-image"
	case SoftmaxFused:
		return "fused"
	case SoftmaxFusedParallel:
		return "fused+parallel"
	default:
		return fmt.Sprintf("SoftmaxImpl(%d)", int(i))
	}
}

// softmaxBlockThreads returns the block size used by the block-per-image
// variants: enough threads to cover the categories, within device limits.
func softmaxBlockThreads(classes int) int {
	threads := 64
	for threads < classes && threads < 1024 {
		threads *= 2
	}
	if threads > 1024 {
		threads = 1024
	}
	return threads
}

// SoftmaxCost returns the kernel statistics of the selected softmax
// implementation on the given layer configuration.
func SoftmaxCost(d *Device, cfg kernels.SoftmaxConfig, impl SoftmaxImpl) KernelStats {
	matrix := cfg.Bytes()
	vector := float64(cfg.N) * 4

	switch impl {
	case SoftmaxThreadPerImage:
		// Five kernels.  Steps 1–5 read the full matrix (or the previous
		// intermediate) and write either a vector (steps 1 and 4) or a full
		// matrix (steps 2, 3 and 5).
		read := 5*matrix + 2*vector
		write := 3*matrix + 2*vector
		return KernelStats{
			Name:       fmt.Sprintf("softmax %s %s", impl, cfg.String()),
			GridBlocks: ceilDiv(cfg.N, 128),
			Block:      BlockResources{ThreadsPerBlock: min(cfg.N, 128), RegsPerThread: 24},
			Launches:   5,
			FLOPs:      float64(cfg.Elems()) * 8,
			// The sequential inner loop keeps only a couple of loads in
			// flight per thread.
			ComputeEfficiency:      0.1,
			BytesInFlightPerThread: 8,
			DRAMReadBytes:          read,
			DRAMWriteBytes:         write,
			UsefulReadBytes:        matrix,
			UsefulWriteBytes:       matrix,
		}
	case SoftmaxBlockPerImage:
		read := 5*matrix + 2*vector
		write := 3*matrix + 2*vector
		return KernelStats{
			Name:                   fmt.Sprintf("softmax %s %s", impl, cfg.String()),
			GridBlocks:             cfg.N,
			Block:                  BlockResources{ThreadsPerBlock: softmaxBlockThreads(cfg.Classes), RegsPerThread: 28},
			Launches:               5,
			FLOPs:                  float64(cfg.Elems()) * 8,
			ComputeEfficiency:      0.15,
			BytesInFlightPerThread: 16,
			DRAMReadBytes:          read,
			DRAMWriteBytes:         write,
			UsefulReadBytes:        matrix,
			UsefulWriteBytes:       matrix,
		}
	case SoftmaxFused:
		// One kernel; the intermediates stay in registers, but the batch
		// loop is still the only parallelism.
		return KernelStats{
			Name:                   fmt.Sprintf("softmax %s %s", impl, cfg.String()),
			GridBlocks:             ceilDiv(cfg.N, 128),
			Block:                  BlockResources{ThreadsPerBlock: min(cfg.N, 128), RegsPerThread: 40},
			Launches:               1,
			FLOPs:                  float64(cfg.Elems()) * 8,
			ComputeEfficiency:      0.1,
			BytesInFlightPerThread: 8,
			DRAMReadBytes:          matrix,
			DRAMWriteBytes:         matrix,
			UsefulReadBytes:        matrix,
			UsefulWriteBytes:       matrix,
		}
	default: // SoftmaxFusedParallel
		threads := softmaxBlockThreads(cfg.Classes)
		smem := cfg.Classes * 4
		if smem > 44<<10 {
			smem = 44 << 10 // in_tile capped; beyond that the kernel streams (C < 11K in Fig. 9)
		}
		smem += 1024 * 4 // tmp_tile reduction buffer
		return KernelStats{
			Name:                   fmt.Sprintf("softmax %s %s", impl, cfg.String()),
			GridBlocks:             cfg.N,
			Block:                  BlockResources{ThreadsPerBlock: threads, RegsPerThread: 32, SharedMemPerBlock: smem},
			Launches:               1,
			FLOPs:                  float64(cfg.Elems()) * 8,
			ComputeEfficiency:      0.25,
			BytesInFlightPerThread: 16,
			DRAMReadBytes:          matrix,
			DRAMWriteBytes:         matrix,
			UsefulReadBytes:        matrix,
			UsefulWriteBytes:       matrix,
		}
	}
}

// SoftmaxBaselineBest returns the faster of the two baseline implementations
// for a configuration, which is how the paper's "BL_Best" bar is built.
func SoftmaxBaselineBest(d *Device, cfg kernels.SoftmaxConfig) (KernelStats, SoftmaxImpl) {
	thread := SoftmaxCost(d, cfg, SoftmaxThreadPerImage)
	block := SoftmaxCost(d, cfg, SoftmaxBlockPerImage)
	if EstimateTime(d, thread).TotalUS <= EstimateTime(d, block).TotalUS {
		return thread, SoftmaxThreadPerImage
	}
	return block, SoftmaxBlockPerImage
}
