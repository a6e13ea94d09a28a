package kernels

import (
	"fmt"
	"math"

	"memcnn/internal/gpusim"
	"memcnn/internal/par"
	"memcnn/internal/tensor"
)

// Backward-pass kernels.  The paper notes (Section II.A, footnote 1) that the
// same data structures and convolution operations are used in the forward and
// backward passes, so the layout findings carry over to training; its Caffe
// integration is profiled on complete forward-backward iterations.  This file
// provides pooling backward, ReLU backward, the fused softmax + cross-entropy
// gradient and the GPU cost models of a training step.  A convolution's two
// gradients, whichever algorithm its forward runs, are the packed GEMM core's
// (backward_gemm.go).
//
// Every kernel writes into a caller-provided gradient tensor; the planned
// training executor (internal/runtime/train) runs them over arena-planned
// buffers, so a steady-state training step allocates no tensors.  Work is
// distributed plane by plane (par.Planes) with a fixed per-element
// accumulation order, so results do not depend on the worker count.  Pooling
// backward walks each window through the tensors' strides.

// ConvBackwardDataCHWNCost models the backward-data pass of the direct
// convolution on the CHWN layout.  The access structure mirrors the forward
// kernel (the roles of C and K swap and the filter is traversed transposed),
// so the cost model reuses the forward machinery on the transposed
// configuration — exactly the paper's observation that forward and backward
// share layout behaviour.
func ConvBackwardDataCHWNCost(d *gpusim.Device, cfg ConvConfig) gpusim.KernelStats {
	cfg = cfg.withDefaults()
	t := transposedConfig(cfg)
	s := ConvDirectCHWNCost(d, t)
	s.Name = fmt.Sprintf("direct-conv-bwd-data CHWN %s", cfg.String())
	return s
}

// ConvBackwardDataNCHWCost models the backward-data pass of the GEMM
// convolution (col2im after a GEMM with the transposed filter matrix).
func ConvBackwardDataNCHWCost(d *gpusim.Device, cfg ConvConfig) []gpusim.KernelStats {
	cfg = cfg.withDefaults()
	t := transposedConfig(cfg)
	seq := ConvGemmNCHWCost(d, t)
	for i := range seq {
		seq[i].Name = fmt.Sprintf("gemm-conv-bwd-data NCHW %s (stage %d)", cfg.String(), i)
	}
	return seq
}

// transposedConfig returns the configuration of the backward-data convolution
// seen as a forward convolution: output channels become input channels and
// the spatial extent is the forward output's.  Degenerate sizes are clamped
// so the cost query stays well defined for very small layers.
func transposedConfig(cfg ConvConfig) ConvConfig {
	h, w := cfg.OutH(), cfg.OutW()
	if h < cfg.FH {
		h = cfg.FH
	}
	if w < cfg.FW {
		w = cfg.FW
	}
	padH, padW := cfg.FH-1-cfg.PadH, cfg.FW-1-cfg.PadW
	if padH < 0 {
		padH = 0
	}
	if padW < 0 {
		padW = 0
	}
	return ConvConfig{
		N: cfg.N, C: cfg.K, H: h, W: w,
		K: cfg.C, FH: cfg.FH, FW: cfg.FW,
		StrideH: 1, StrideW: 1,
		PadH: padH, PadW: padW,
	}
}

// ConvBackwardFilterCost models the weight-gradient kernel, which both
// libraries implement as a GEMM over the unrolled input:
// dW (K × C·FH·FW) = dOut (K × N·OutH·OutW) · unrolled(in)ᵀ.
func ConvBackwardFilterCost(d *gpusim.Device, cfg ConvConfig) []gpusim.KernelStats {
	cfg = cfg.withDefaults()
	g := GemmCostConfig{M: cfg.K, N: cfg.ReductionLength(), K: cfg.N * cfg.OutH() * cfg.OutW()}
	gemm := GemmCost(d, g)
	gemm.Name = fmt.Sprintf("conv-bwd-filter %s", cfg.String())
	if cfg.FH == 1 && cfg.FW == 1 && cfg.StrideH == 1 && cfg.StrideW == 1 {
		return []gpusim.KernelStats{gemm}
	}
	return []gpusim.KernelStats{Im2colCost(d, cfg), gemm}
}

// PoolBackwardInto computes the gradient of the pooling layer.  For max
// pooling the incoming gradient is routed to the window position that
// produced the maximum (ties go to the first such position, as the CUDA
// kernels do); for average pooling it is spread uniformly over the window.
// The destination is fully overwritten (the scatter zeroes each (n, c) plane
// before accumulating into it), so arena-recycled storage needs no clearing.
// Each plane is owned by exactly one worker with a fixed window order, so the
// result is bit-deterministic for any worker count.
//
//memcnn:noalloc
func PoolBackwardInto(in, dOut, dIn *tensor.Tensor, cfg PoolConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if in.Shape != cfg.InputShape() {
		return fmt.Errorf("kernels: pool backward input shape %v does not match config %v", in.Shape, cfg.InputShape())
	}
	if dOut.Shape != cfg.OutputShape() {
		return fmt.Errorf("kernels: pool backward dOut shape %v does not match config %v", dOut.Shape, cfg.OutputShape())
	}
	if dIn.Shape != cfg.InputShape() {
		return fmt.Errorf("kernels: pool backward dIn shape %v does not match config %v", dIn.Shape, cfg.InputShape())
	}
	j := poolBackwardJob{cfg: cfg, outH: cfg.OutH(), outW: cfg.OutW(), in: stridesOf(in), dOut: stridesOf(dOut), dIn: stridesOf(dIn)}
	par.Planes(cfg.N*cfg.C, j, poolBackwardPlane)
	return nil
}

type poolBackwardJob struct {
	cfg           PoolConfig
	outH, outW    int
	in, dOut, dIn strided
}

// poolBackwardPlane zeroes input-gradient plane (n, c) and scatters the
// plane's output gradients into it in (oh, ow) order, walking each window
// through the strides of in and dIn.
//
//memcnn:noalloc
func poolBackwardPlane(j poolBackwardJob, p int) {
	cfg, in, dOut, dIn := &j.cfg, &j.in, &j.dOut, &j.dIn
	n, c := p/cfg.C, p%cfg.C
	src := in.data[n*in.n+c*in.c:]
	g := dOut.data[n*dOut.n+c*dOut.c:]
	dst := dIn.data[n*dIn.n+c*dIn.c:]
	for h := 0; h < cfg.H; h++ {
		row := dst[h*dIn.h:]
		for w := 0; w < cfg.W; w++ {
			row[w*dIn.w] = 0
		}
	}
	area := float32(cfg.Window * cfg.Window)
	for oh := 0; oh < j.outH; oh++ {
		for ow := 0; ow < j.outW; ow++ {
			v := g[oh*dOut.h+ow*dOut.w]
			win := src[oh*cfg.Stride*in.h+ow*cfg.Stride*in.w:]
			to := dst[oh*cfg.Stride*dIn.h+ow*cfg.Stride*dIn.w:]
			if cfg.Op == AvgPool {
				share := v / area
				for y := 0; y < cfg.Window; y++ {
					for x := 0; x < cfg.Window; x++ {
						to[y*dIn.h+x*dIn.w] += share
					}
				}
				continue
			}
			bestY, bestX := 0, 0
			best := win[0]
			for y := 0; y < cfg.Window; y++ {
				for x := 0; x < cfg.Window; x++ {
					if u := win[y*in.h+x*in.w]; u > best {
						best, bestY, bestX = u, y, x
					}
				}
			}
			to[bestY*dIn.h+bestX*dIn.w] += v
		}
	}
}

// PoolBackwardCost models the pooling backward kernel: it reads the incoming
// gradient and the forward activations (or the stored argmax mask) and
// scatters into the input gradient.  The layout determines coalescing exactly
// as in the forward pass.
func PoolBackwardCost(d *gpusim.Device, cfg PoolConfig, layoutIsCHWN bool) gpusim.KernelStats {
	inBytes := float64(cfg.InputShape().Elems()) * 4
	outBytes := float64(cfg.OutputShape().Elems()) * 4
	// Reads: gradient + mask; writes: input-sized gradient (atomics for the
	// overlapped case).
	read := 2 * outBytes
	write := inBytes
	eff := 1.0
	if !layoutIsCHWN {
		eff = nchwPoolWarpEfficiency(d, cfg)
	}
	if cfg.Overlapped() {
		write *= 1.15 // atomic collisions on shared border elements
	}
	name := "pool-bwd CHWN"
	if !layoutIsCHWN {
		name = "pool-bwd NCHW"
	}
	return gpusim.KernelStats{
		Name:              fmt.Sprintf("%s %s", name, cfg.String()),
		GridBlocks:        ceilDiv(cfg.OutputShape().Elems(), 256),
		Block:             gpusim.BlockResources{ThreadsPerBlock: 256, RegsPerThread: 24},
		Launches:          1,
		FLOPs:             cfg.FLOPs(),
		ComputeEfficiency: 0.5,
		DRAMReadBytes:     read / eff,
		DRAMWriteBytes:    write / eff,
		UsefulReadBytes:   read,
		UsefulWriteBytes:  write,
	}
}

// SoftmaxCrossEntropyBackwardFloatInto computes the gradient of the softmax +
// cross-entropy loss with respect to the logits, probs - onehot(labels)
// scaled by 1/N, into a caller-provided slice of at least cfg.Elems()
// elements.  probs is the row-major N×Classes output of Softmax; the labels
// are carried as float32 values (rounded class indices), the form they take
// inside a planned training program's float32 arena.
//
//memcnn:noalloc
func SoftmaxCrossEntropyBackwardFloatInto(grad, probs, labels []float32, cfg SoftmaxConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if len(probs) < cfg.Elems() {
		return fmt.Errorf("kernels: softmax backward probs has %d elements, want %d", len(probs), cfg.Elems())
	}
	if len(grad) < cfg.Elems() {
		return fmt.Errorf("kernels: softmax backward grad has %d elements, want %d", len(grad), cfg.Elems())
	}
	if len(labels) < cfg.N {
		return fmt.Errorf("kernels: softmax backward has %d labels, want %d", len(labels), cfg.N)
	}
	scale := 1 / float32(cfg.N)
	for n := 0; n < cfg.N; n++ {
		lbl := int(labels[n])
		if lbl < 0 || lbl >= cfg.Classes {
			return fmt.Errorf("kernels: label %d out of range for %d classes", lbl, cfg.Classes)
		}
		for c := 0; c < cfg.Classes; c++ {
			g := probs[n*cfg.Classes+c]
			if c == lbl {
				g -= 1
			}
			grad[n*cfg.Classes+c] = g * scale
		}
	}
	return nil
}

// SoftmaxCrossEntropyLoss returns the mean cross-entropy of the probability
// matrix against the labels: -1/N · Σ log probs[n][label n].  The summation
// order is fixed (by image, in float64), so the loss value is bit-stable
// across executors — the planned and naive trainers both report it.
func SoftmaxCrossEntropyLoss(probs []float32, labels []int, cfg SoftmaxConfig) (float64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	if len(probs) < cfg.Elems() {
		return 0, fmt.Errorf("kernels: softmax loss probs has %d elements, want %d", len(probs), cfg.Elems())
	}
	if len(labels) != cfg.N {
		return 0, fmt.Errorf("kernels: softmax loss has %d labels, want %d", len(labels), cfg.N)
	}
	var loss float64
	for n := 0; n < cfg.N; n++ {
		lbl := labels[n]
		if lbl < 0 || lbl >= cfg.Classes {
			return 0, fmt.Errorf("kernels: label %d out of range for %d classes", lbl, cfg.Classes)
		}
		p := float64(probs[n*cfg.Classes+lbl])
		if p < 1e-30 {
			p = 1e-30 // clamp: a zero probability would make the loss infinite
		}
		loss -= math.Log(p)
	}
	return loss / float64(cfg.N), nil
}

// SoftmaxBackwardCost models the (fused) softmax backward kernel: one
// streaming pass over the probability matrix.
func SoftmaxBackwardCost(d *gpusim.Device, cfg SoftmaxConfig, fused bool) gpusim.KernelStats {
	matrix := cfg.Bytes()
	launches := 1
	read, write := matrix, matrix
	if !fused {
		// The unfused baseline recomputes through separate kernels and
		// round-trips an intermediate matrix.
		launches = 2
		read, write = 2*matrix, 2*matrix
	}
	return gpusim.KernelStats{
		Name:              fmt.Sprintf("softmax-bwd %s", cfg.String()),
		GridBlocks:        cfg.N,
		Block:             gpusim.BlockResources{ThreadsPerBlock: softmaxBlockThreads(cfg.Classes), RegsPerThread: 24},
		Launches:          launches,
		FLOPs:             float64(cfg.Elems()) * 2,
		ComputeEfficiency: 0.25,
		DRAMReadBytes:     read,
		DRAMWriteBytes:    write,
		UsefulReadBytes:   matrix,
		UsefulWriteBytes:  matrix,
	}
}

// ReLUBackwardInto masks the incoming gradient with the forward activation's
// sign: dIn = dOut where the forward input was positive, 0 elsewhere.  Every
// element of dIn is overwritten.  When all three tensors share a layout it is
// a single linear pass over the backing slices; dIn may alias dOut (the mask
// reads in, writes only dIn).
//
//memcnn:noalloc
func ReLUBackwardInto(in, dOut, dIn *tensor.Tensor) error {
	if in.Shape != dOut.Shape {
		return fmt.Errorf("kernels: relu backward shape mismatch %v vs %v", in.Shape, dOut.Shape)
	}
	if dIn.Shape != in.Shape {
		return fmt.Errorf("kernels: relu backward dIn shape %v, want %v", dIn.Shape, in.Shape)
	}
	if in.Layout == dOut.Layout && dOut.Layout == dIn.Layout {
		for i, v := range in.Data {
			if v > 0 {
				dIn.Data[i] = dOut.Data[i]
			} else {
				dIn.Data[i] = 0
			}
		}
		return nil
	}
	s := in.Shape
	for n := 0; n < s.N; n++ {
		for c := 0; c < s.C; c++ {
			for h := 0; h < s.H; h++ {
				for w := 0; w < s.W; w++ {
					var g float32
					if in.At(n, c, h, w) > 0 {
						g = dOut.At(n, c, h, w)
					}
					dIn.Set(n, c, h, w, g)
				}
			}
		}
	}
	return nil
}

// ConvTrainingCost returns the kernel sequence of one training step of a
// convolutional layer (forward + backward-data + backward-filter) in the
// given layout, the quantity the paper's complete forward-backward profiling
// measures.
func ConvTrainingCost(d *gpusim.Device, cfg ConvConfig, chwn bool) []gpusim.KernelStats {
	bwdFilter := ConvBackwardFilterCost(d, cfg)
	if chwn {
		// cuda-convnet's weight-gradient kernel works on the CHWN data
		// directly (no unroll step), so only the GEMM-equivalent part of the
		// weight-gradient cost applies.
		return []gpusim.KernelStats{
			ConvDirectCHWNCost(d, cfg),
			ConvBackwardDataCHWNCost(d, cfg),
			bwdFilter[len(bwdFilter)-1],
		}
	}
	seq := ConvGemmNCHWCost(d, cfg)
	seq = append(seq, ConvBackwardDataNCHWCost(d, cfg)...)
	seq = append(seq, bwdFilter...)
	return seq
}
