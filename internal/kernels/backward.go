package kernels

import (
	"fmt"
	"math"

	"memcnn/internal/par"
	"memcnn/internal/tensor"
)

// Backward-pass kernels.  The paper notes (Section II.A, footnote 1) that the
// same data structures and convolution operations are used in the forward and
// backward passes, so the layout findings carry over to training; its Caffe
// integration is profiled on complete forward-backward iterations.  This file
// provides pooling backward, ReLU backward and the fused softmax +
// cross-entropy gradient.  A convolution's two gradients, whichever algorithm
// its forward runs, are the packed GEMM core's (backward_gemm.go).
//
// Every kernel writes into a caller-provided gradient tensor; the planned
// training executor (internal/runtime/train) runs them over arena-planned
// buffers, so a steady-state training step allocates no tensors.  Work is
// distributed plane by plane (par.Planes) with a fixed per-element
// accumulation order, so results do not depend on the worker count.  Pooling
// backward walks each window through the tensors' strides, or, all in CHWN,
// a channel of every image at once.

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
	if in.Layout == tensor.CHWN && dOut.Layout == tensor.CHWN && dIn.Layout == tensor.CHWN {
		par.Planes(cfg.C, j, poolBackwardChannel)
		return nil
	}
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

// poolBackImages is how many images poolBackwardChannel keeps a running
// argmax for at once.
const poolBackImages = 64

// poolBackwardChannel is poolBackwardPlane for channel c of every image at
// once, all three tensors in CHWN: it zeroes the channel's input gradient and
// walks its windows in (oh, ow) order with the images innermost, up to
// poolBackImages of them with a running argmax each.  Every input element
// receives its adds in poolBackwardPlane's order, so the bits are the same.
//
//memcnn:noalloc
func poolBackwardChannel(j poolBackwardJob, c int) {
	cfg := &j.cfg
	n := cfg.N
	src := j.in.data[c*j.in.c : (c+1)*j.in.c]
	g := j.dOut.data[c*j.dOut.c : (c+1)*j.dOut.c]
	dst := j.dIn.data[c*j.dIn.c : (c+1)*j.dIn.c]
	clear(dst)
	area := float32(cfg.Window * cfg.Window)
	var best [poolBackImages]float32
	var at [poolBackImages]int
	for oh := 0; oh < j.outH; oh++ {
		for ow := 0; ow < j.outW; ow++ {
			v := g[(oh*j.outW+ow)*n:]
			win := (oh*cfg.Stride*cfg.W + ow*cfg.Stride) * n
			for n0 := 0; n0 < n; n0 += poolBackImages {
				m := min(poolBackImages, n-n0)
				if cfg.Op == AvgPool {
					for y := 0; y < cfg.Window; y++ {
						for x := 0; x < cfg.Window; x++ {
							to := dst[win+(y*cfg.W+x)*n+n0:]
							for i, u := range v[n0 : n0+m] {
								to[i] += u / area
							}
						}
					}
					continue
				}
				copy(best[:m], src[win+n0:])
				for i := range at[:m] {
					at[i] = win + n0 + i
				}
				for y := 0; y < cfg.Window; y++ {
					for x := 0; x < cfg.Window; x++ {
						off := win + (y*cfg.W+x)*n + n0
						for i, u := range src[off : off+m] {
							if u > best[i] {
								best[i], at[i] = u, off+i
							}
						}
					}
				}
				for i, u := range v[n0 : n0+m] {
					dst[at[i]] += u
				}
			}
		}
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
	s, x, g, d := in.Shape, stridesOf(in), stridesOf(dOut), stridesOf(dIn)
	for n := 0; n < s.N; n++ {
		for c := 0; c < s.C; c++ {
			for h := 0; h < s.H; h++ {
				xi, gi, di := n*x.n+c*x.c+h*x.h, n*g.n+c*g.c+h*g.h, n*d.n+c*d.c+h*d.h
				for w := 0; w < s.W; w++ {
					var v float32
					if x.data[xi] > 0 {
						v = g.data[gi]
					}
					d.data[di] = v
					xi, gi, di = xi+x.w, gi+g.w, di+d.w
				}
			}
		}
	}
	return nil
}
