package kernels

import (
	"fmt"
	"math"

	"memcnn/internal/gpusim"
	"memcnn/internal/par"
)

// Softmax (classifier) kernels, Section V.B.  The baseline libraries
// implement the five algorithm steps (max, shift, exp, sum, normalise) as
// five separate kernels whose intermediate matrices round-trip through global
// memory, and parallelise only the batch loop — for a batch of 128 images
// that is 128 threads, far too few to hide DRAM latency.  The optimised
// kernel fuses the five steps into one kernel and parallelises the inner
// (category) loops with a per-block reduction.

// Softmax computes the row-wise softmax of an N×Classes matrix (row-major).
// It is the functional reference shared by all softmax kernel models.
func Softmax(in []float32, cfg SoftmaxConfig) ([]float32, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	out := make([]float32, len(in))
	if err := SoftmaxInto(out, in, cfg); err != nil {
		return nil, err
	}
	return out, nil
}

// SoftmaxInto computes the row-wise softmax of src into the caller-provided
// dst (both N×Classes row-major) without allocating.  dst may alias src: each
// row is read fully for its maximum before anything is written.
//
//memcnn:noalloc
func SoftmaxInto(dst, src []float32, cfg SoftmaxConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if len(src) != cfg.Elems() {
		return fmt.Errorf("kernels: softmax input has %d elements, want %d", len(src), cfg.Elems())
	}
	if len(dst) != cfg.Elems() {
		return fmt.Errorf("kernels: softmax output has %d elements, want %d", len(dst), cfg.Elems())
	}
	par.Planes(cfg.N, softmaxJob{dst: dst, src: src, classes: cfg.Classes}, softmaxPlane)
	return nil
}

// softmaxJob is one SoftmaxInto call, one plane per row.
type softmaxJob struct {
	dst, src []float32
	classes  int
}

func softmaxPlane(j softmaxJob, n int) {
	softmaxRow(j.src[n*j.classes:(n+1)*j.classes], j.dst[n*j.classes:(n+1)*j.classes])
}

// softmaxRow computes one row; dst may alias row (the maximum is taken before
// any write, and dst[i] is written only after row[i] is read).
func softmaxRow(row, dst []float32) {
	maxV := row[0]
	for _, v := range row {
		if v > maxV {
			maxV = v
		}
	}
	var sum float64
	for i, v := range row {
		e := math.Exp(float64(v - maxV))
		dst[i] = float32(e)
		sum += e
	}
	inv := 1 / sum
	for i := range dst {
		dst[i] = float32(float64(dst[i]) * inv)
	}
}

// SoftmaxFiveStep computes the same result through the explicit five-step
// algorithm of Section II.A, materialising every intermediate matrix the way
// the five-kernel baseline does.  Tests assert it agrees with Softmax; the
// intermediates let the cost model's traffic accounting be cross-checked.
func SoftmaxFiveStep(in []float32, cfg SoftmaxConfig) (out []float32, intermediates int, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, 0, err
	}
	if len(in) != cfg.Elems() {
		return nil, 0, fmt.Errorf("kernels: softmax input has %d elements, want %d", len(in), cfg.Elems())
	}
	n, c := cfg.N, cfg.Classes
	// Step 1: per-image maximum.
	maxv := make([]float32, n)
	for i := 0; i < n; i++ {
		maxv[i] = in[i*c]
		for j := 0; j < c; j++ {
			if v := in[i*c+j]; v > maxv[i] {
				maxv[i] = v
			}
		}
	}
	// Step 2: shift.
	mid1 := make([]float32, n*c)
	for i := 0; i < n; i++ {
		for j := 0; j < c; j++ {
			mid1[i*c+j] = in[i*c+j] - maxv[i]
		}
	}
	// Step 3: exponential.
	mid2 := make([]float32, n*c)
	for i := range mid1 {
		mid2[i] = float32(math.Exp(float64(mid1[i])))
	}
	// Step 4: per-image sum.
	sumv := make([]float32, n)
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j < c; j++ {
			s += float64(mid2[i*c+j])
		}
		sumv[i] = float32(s)
	}
	// Step 5: normalise.
	out = make([]float32, n*c)
	for i := 0; i < n; i++ {
		for j := 0; j < c; j++ {
			out[i*c+j] = mid2[i*c+j] / sumv[i]
		}
	}
	return out, 2*n*c + 2*n, nil
}

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
func SoftmaxCost(d *gpusim.Device, cfg SoftmaxConfig, impl SoftmaxImpl) gpusim.KernelStats {
	matrix := cfg.Bytes()
	vector := float64(cfg.N) * 4

	switch impl {
	case SoftmaxThreadPerImage:
		// Five kernels.  Steps 1–5 read the full matrix (or the previous
		// intermediate) and write either a vector (steps 1 and 4) or a full
		// matrix (steps 2, 3 and 5).
		read := 5*matrix + 2*vector
		write := 3*matrix + 2*vector
		return gpusim.KernelStats{
			Name:       fmt.Sprintf("softmax %s %s", impl, cfg.String()),
			GridBlocks: ceilDiv(cfg.N, 128),
			Block:      gpusim.BlockResources{ThreadsPerBlock: minInt(cfg.N, 128), RegsPerThread: 24},
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
		return gpusim.KernelStats{
			Name:                   fmt.Sprintf("softmax %s %s", impl, cfg.String()),
			GridBlocks:             cfg.N,
			Block:                  gpusim.BlockResources{ThreadsPerBlock: softmaxBlockThreads(cfg.Classes), RegsPerThread: 28},
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
		return gpusim.KernelStats{
			Name:                   fmt.Sprintf("softmax %s %s", impl, cfg.String()),
			GridBlocks:             ceilDiv(cfg.N, 128),
			Block:                  gpusim.BlockResources{ThreadsPerBlock: minInt(cfg.N, 128), RegsPerThread: 40},
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
		return gpusim.KernelStats{
			Name:                   fmt.Sprintf("softmax %s %s", impl, cfg.String()),
			GridBlocks:             cfg.N,
			Block:                  gpusim.BlockResources{ThreadsPerBlock: threads, RegsPerThread: 32, SharedMemPerBlock: smem},
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
func SoftmaxBaselineBest(d *gpusim.Device, cfg SoftmaxConfig) (gpusim.KernelStats, SoftmaxImpl) {
	thread := SoftmaxCost(d, cfg, SoftmaxThreadPerImage)
	block := SoftmaxCost(d, cfg, SoftmaxBlockPerImage)
	if gpusim.EstimateTime(d, thread).TotalUS <= gpusim.EstimateTime(d, block).TotalUS {
		return thread, SoftmaxThreadPerImage
	}
	return block, SoftmaxBlockPerImage
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
