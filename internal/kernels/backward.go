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
// provides the backward kernels needed to price (and functionally check) a
// training step: convolution gradients with respect to the input and to the
// filters, pooling backward, ReLU backward and the fused softmax +
// cross-entropy gradient.
//
// Every kernel writes into a caller-provided gradient tensor; the planned
// training executor (internal/runtime/train) runs them over arena-planned
// buffers, so a steady-state training step allocates no tensors.  Work is
// distributed plane by plane (par.Planes) with a fixed per-element
// accumulation order, so results do not depend on the worker count.  The two
// convolution gradients are stride walks over lane tiles, like the forward
// direct kernel; conv_direct.go describes the scheme.

// ConvBackwardDataInto computes the gradient of the convolution with respect
// to its input: dIn[n][c][ih][iw] = sum over (k, fh, fw) hitting (ih, iw) of
// dOut[n][k][oh][ow] * filter[k][c][fh][fw].  It writes into a
// caller-provided input-gradient tensor of the config's input shape (any
// layout).  Every element is overwritten, so the destination's prior contents
// do not matter.  Each (c, ih) row is computed by exactly one worker with a
// fixed accumulation order, so the result is bit-deterministic for any worker
// count.
//
//memcnn:noalloc
func ConvBackwardDataInto(dOut, filters, dIn *tensor.Tensor, cfg ConvConfig) error {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return err
	}
	if dOut.Shape != cfg.OutputShape() {
		return fmt.Errorf("kernels: backward-data dOut shape %v does not match config %v", dOut.Shape, cfg.OutputShape())
	}
	if filters.Shape != cfg.FilterShape() {
		return fmt.Errorf("kernels: filter shape %v does not match config %v", filters.Shape, cfg.FilterShape())
	}
	if dIn.Shape != cfg.InputShape() {
		return fmt.Errorf("kernels: backward-data dIn shape %v does not match config %v", dIn.Shape, cfg.InputShape())
	}
	j := convJob{cfg: cfg, outH: cfg.OutH(), outW: cfg.OutW(),
		in: stridesOf(dIn), filters: stridesOf(filters), out: stridesOf(dOut)}
	par.Planes(cfg.C*cfg.H, j, convBackwardDataPlane)
	return nil
}

// convBackwardDataPlane computes input-gradient row (c, ih) for every image,
// summing each element's taps in k→fh→fw order.  Lanes run along n with iw
// stepping outside them, or the other way round; along W a tap at stride S
// lands on every S-th lane.
//
//memcnn:noalloc
func convBackwardDataPlane(j convJob, p int) {
	cfg, dIn, dOut := &j.cfg, &j.in, &j.out
	c, ih := p/cfg.H, p%cfg.H
	alongN := dOut.lanesAlongN()
	lanes, others, inStep := cfg.W, cfg.N, dIn.w
	if alongN {
		lanes, others, inStep = cfg.N, cfg.W, dIn.n
	}
	var tile [laneTile]float64
	for o := 0; o < others; o++ {
		for l0 := 0; l0 < lanes; l0 += laneTile {
			acc := tile[:min(laneTile, lanes-l0)]
			for i := range acc {
				acc[i] = 0
			}
			n, iw := o, l0
			if alongN {
				n, iw = l0, o
			}
			for k := 0; k < cfg.K; k++ {
				for fh := 0; fh < cfg.FH; fh++ {
					ohNum := ih + cfg.PadH - fh
					if ohNum < 0 || ohNum%cfg.StrideH != 0 || ohNum/cfg.StrideH >= j.outH {
						continue
					}
					gRow := dOut.data[n*dOut.n+k*dOut.c+ohNum/cfg.StrideH*dOut.h:]
					fRow := j.filters.data[k*j.filters.n+c*j.filters.c+fh*j.filters.h:]
					for fw := 0; fw < cfg.FW; fw++ {
						w := float64(fRow[fw*j.filters.w])
						if alongN {
							if owNum := iw + cfg.PadW - fw; owNum >= 0 && owNum%cfg.StrideW == 0 && owNum/cfg.StrideW < j.outW {
								fmaLanes(acc, 1, gRow[owNum/cfg.StrideW*dOut.w:], dOut.n, w, len(acc))
							}
							continue
						}
						if lo, hi := tapRange(fw, cfg.StrideW, cfg.PadW, iw, iw+len(acc), 0, j.outW); lo < hi {
							fmaLanes(acc[lo*cfg.StrideW-cfg.PadW+fw-iw:], cfg.StrideW, gRow[lo*dOut.w:], dOut.w, w, hi-lo)
						}
					}
				}
			}
			dst := dIn.data[n*dIn.n+c*dIn.c+ih*dIn.h+iw*dIn.w:]
			for i, v := range acc {
				dst[i*inStep] = float32(v)
			}
		}
	}
}

// ConvBackwardFilterInto computes the gradient of the convolution with
// respect to its filter bank: dW[k][c][fh][fw] = sum over (n, oh, ow) of
// dOut[n][k][oh][ow] * in[n][c][oh*S+fh-pad][ow*S+fw-pad].  It writes into a
// caller-provided filter-gradient tensor of the config's filter shape.  Each
// (k, c, fh) filter row is accumulated by exactly one worker in a fixed
// (n, oh, ow) order, so the result is bit-deterministic for any worker count.
//
//memcnn:noalloc
func ConvBackwardFilterInto(in, dOut, dW *tensor.Tensor, cfg ConvConfig) error {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return err
	}
	if in.Shape != cfg.InputShape() {
		return fmt.Errorf("kernels: backward-filter input shape %v does not match config %v", in.Shape, cfg.InputShape())
	}
	if dOut.Shape != cfg.OutputShape() {
		return fmt.Errorf("kernels: backward-filter dOut shape %v does not match config %v", dOut.Shape, cfg.OutputShape())
	}
	if dW.Shape != cfg.FilterShape() {
		return fmt.Errorf("kernels: backward-filter dW shape %v does not match config %v", dW.Shape, cfg.FilterShape())
	}
	j := convJob{cfg: cfg, outH: cfg.OutH(), outW: cfg.OutW(),
		in: stridesOf(in), filters: stridesOf(dW), out: stridesOf(dOut)}
	par.Planes(cfg.K*cfg.C*cfg.FH, j, convBackwardFilterPlane)
	return nil
}

// convBackwardFilterPlane computes filter-gradient row (k, c, fh).  Each
// element is one serial n→oh→ow sum, so the lanes are the row's fw taps: one
// gradient value is hoisted per (n, oh, ow) and multiplied into every tap's
// accumulator, which keeps FW independent chains in flight.
//
//memcnn:noalloc
func convBackwardFilterPlane(j convJob, p int) {
	cfg, in, dW, dOut := &j.cfg, &j.in, &j.filters, &j.out
	k, c, fh := p/(cfg.C*cfg.FH), p/cfg.FH%cfg.C, p%cfg.FH
	var tile [laneTile]float64
	for f0 := 0; f0 < cfg.FW; f0 += laneTile {
		acc := tile[:min(laneTile, cfg.FW-f0)]
		for i := range acc {
			acc[i] = 0
		}
		for n := 0; n < cfg.N; n++ {
			for oh := 0; oh < j.outH; oh++ {
				ih := oh*cfg.StrideH - cfg.PadH + fh
				if ih < 0 || ih >= cfg.H {
					continue
				}
				inRow := in.data[n*in.n+c*in.c+ih*in.h:]
				gRow := dOut.data[n*dOut.n+k*dOut.c+oh*dOut.h:]
				for ow := 0; ow < j.outW; ow++ {
					iw0 := ow*cfg.StrideW - cfg.PadW // input column of tap fw = 0
					lo, hi := max(f0, -iw0), min(f0+len(acc), cfg.W-iw0)
					if lo < hi {
						fmaLanes(acc[lo-f0:], 1, inRow[(iw0+lo)*in.w:], in.w, float64(gRow[ow*dOut.w]), hi-lo)
					}
				}
			}
		}
		dst := dW.data[k*dW.n+c*dW.c+fh*dW.h+f0*dW.w:]
		for i, v := range acc {
			dst[i*dW.w] = float32(v)
		}
	}
}

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
	par.Planes(cfg.N*cfg.C, poolBackwardJob{in, dOut, dIn, cfg}, poolBackwardPlane)
	return nil
}

type poolBackwardJob struct {
	in, dOut, dIn *tensor.Tensor
	cfg           PoolConfig
}

// poolBackwardPlane zeroes input-gradient plane (n, c) and scatters the
// plane's output gradients into it in (oh, ow) order.
func poolBackwardPlane(j poolBackwardJob, p int) {
	in, dOut, dIn, cfg := j.in, j.dOut, j.dIn, j.cfg
	outH, outW := cfg.OutH(), cfg.OutW()
	n, c := p/cfg.C, p%cfg.C
	for h := 0; h < cfg.H; h++ {
		for w := 0; w < cfg.W; w++ {
			dIn.Set(n, c, h, w, 0)
		}
	}
	for oh := 0; oh < outH; oh++ {
		for ow := 0; ow < outW; ow++ {
			g := dOut.At(n, c, oh, ow)
			h0, w0 := oh*cfg.Stride, ow*cfg.Stride
			if cfg.Op == AvgPool {
				share := g / float32(cfg.Window*cfg.Window)
				for y := 0; y < cfg.Window; y++ {
					for x := 0; x < cfg.Window; x++ {
						dIn.Set(n, c, h0+y, w0+x, dIn.At(n, c, h0+y, w0+x)+share)
					}
				}
				continue
			}
			bestY, bestX := 0, 0
			best := in.At(n, c, h0, w0)
			for y := 0; y < cfg.Window; y++ {
				for x := 0; x < cfg.Window; x++ {
					if v := in.At(n, c, h0+y, w0+x); v > best {
						best, bestY, bestX = v, y, x
					}
				}
			}
			dIn.Set(n, c, h0+bestY, w0+bestX, dIn.At(n, c, h0+bestY, w0+bestX)+g)
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
