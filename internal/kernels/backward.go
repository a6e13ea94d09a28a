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
// backward walks each window through the tensors' strides, a channel of every
// image at once where the input's images are its lanes.

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
	planes := cfg.N * cfg.C
	if j.in.lanesAlongN() {
		planes = cfg.C
	}
	par.Planes(planes, j, poolBackwardPlane)
	return nil
}

type poolBackwardJob struct {
	cfg           PoolConfig
	outH, outW    int
	in, dOut, dIn strided
}

// poolBackwardPlane zeroes one plane of the input gradient and scatters its
// output gradients into it with poolPlane's lanes, through the strides of in,
// dOut and dIn: plane p is channel p of every image, the images the lanes,
// where in runs its lanes along N, else channel p%C of image p/C, the lanes
// along ow.  A tile keeps a running argmax (the first maximum) per lane and
// adds lane after lane, so every input element receives its adds in (oh, ow)
// order whatever the walk, and the bits are the same.
//
//memcnn:noalloc
func poolBackwardPlane(j poolBackwardJob, p int) {
	cfg, in, dOut, dIn := &j.cfg, &j.in, &j.dOut, &j.dIn
	alongN := in.lanesAlongN()
	c, n0, lanes, others := p, 0, cfg.N, j.outW
	inStep, gStep, toStep := in.n, dOut.n, dIn.n
	// The plane is zeroed row by row, its images or its columns innermost.
	zl, zo, zlStep, zoStep := cfg.N, cfg.W, dIn.n, dIn.w
	if !alongN {
		c, n0, lanes, others = p%cfg.C, p/cfg.C, j.outW, 1
		inStep, gStep, toStep = cfg.Stride*in.w, dOut.w, cfg.Stride*dIn.w
		zl, zo, zlStep, zoStep = cfg.W, 1, dIn.w, 0
	}
	for h := 0; h < cfg.H; h++ {
		row := dIn.data[n0*dIn.n+c*dIn.c+h*dIn.h:]
		if zlStep == 1 && (zo == 1 || zoStep == zl) { // one run of memory
			clear(row[:zo*zl])
			continue
		}
		for o := 0; o < zo; o++ {
			for i := 0; i < zl; i++ {
				row[o*zoStep+i*zlStep] = 0
			}
		}
	}
	area := float32(cfg.Window * cfg.Window)
	var best [laneTile]float32 // a lane's maximum, or its share of an average
	var at [laneTile]int       // the maximum's offset in the lane's window of dIn
	for oh := 0; oh < j.outH; oh++ {
		for o := 0; o < others; o++ {
			for l0 := 0; l0 < lanes; l0 += laneTile {
				m := min(laneTile, lanes-l0)
				n, ow := l0, o
				if !alongN {
					n, ow = n0, l0
				}
				g := dOut.data[n*dOut.n+c*dOut.c+oh*dOut.h+ow*dOut.w:]
				win := in.data[n*in.n+c*in.c+oh*cfg.Stride*in.h+ow*cfg.Stride*in.w:]
				to := dIn.data[n*dIn.n+c*dIn.c+oh*cfg.Stride*dIn.h+ow*cfg.Stride*dIn.w:]
				if cfg.Op == AvgPool {
					share := best[:m]
					for i := range share {
						share[i] = g[i*gStep] / area
					}
					if alongN { // images share no element: tap by tap
						for y := 0; y < cfg.Window; y++ {
							for x := 0; x < cfg.Window; x++ {
								off := y*dIn.h + x*dIn.w
								for i, v := range share {
									to[off+i*toStep] += v
								}
							}
						}
						continue
					}
					// Windows along ow may overlap: lane by lane.
					for i, v := range share {
						lane := to[i*toStep:]
						for y := 0; y < cfg.Window; y++ {
							for x := 0; x < cfg.Window; x++ {
								lane[y*dIn.h+x*dIn.w] += v
							}
						}
					}
					continue
				}
				for i := range best[:m] {
					best[i], at[i] = win[i*inStep], 0
				}
				for y := 0; y < cfg.Window; y++ {
					for x := 0; x < cfg.Window; x++ {
						argmaxLanes(best[:m], at[:m], win[y*in.h+x*in.w:], inStep, y*dIn.h+x*dIn.w)
					}
				}
				for i, a := range at[:m] {
					to[i*toStep+a] += g[i*gStep]
				}
			}
		}
	}
}

// argmaxLanes performs best[i], at[i] = src[i*srcStep], pos wherever
// src[i*srcStep] > best[i], keeping the first maximum as poolPlane does.
func argmaxLanes(best []float32, at []int, src []float32, srcStep, pos int) {
	at = at[:len(best)]
	if srcStep == 1 {
		for i, u := range src[:len(best)] {
			if u > best[i] {
				best[i], at[i] = u, pos
			}
		}
		return
	}
	for i := range best {
		if u := src[i*srcStep]; u > best[i] {
			best[i], at[i] = u, pos
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
