package layers

import (
	"fmt"
	"math"

	"memcnn/internal/kernels"
	"memcnn/internal/par"
	"memcnn/internal/tensor"
)

// Training extensions of Layer.  The convolution, pooling, ReLU and softmax
// gradient kernels live in internal/kernels next to their forward kernels;
// the layers adapt them (and their own parameters) behind two uniform
// interfaces so the training compiler (internal/runtime/train) and the device
// dispatch (internal/runtime) need no per-layer knowledge.  A convolution's
// two gradients run on the packed GEMM core whichever algorithm its forward
// runs; every other layer's gradients are its own kernels.  All methods are
// allocation-free and bit-deterministic for any worker count: parallel passes
// go through par.Planes, so every output element is written by exactly one
// worker in a fixed accumulation order.

// BackwardLayer is implemented by layers that can propagate a gradient to
// their input.  Softmax deliberately does not implement it: its backward is
// only meaningful fused with the cross-entropy loss, which the training
// compiler lowers as a dedicated loss-gradient op
// (kernels.SoftmaxCrossEntropyBackwardFloatInto).
type BackwardLayer interface {
	Layer
	// BackwardDataInto computes d(loss)/d(input) into dIn from the incoming
	// gradient dOut and the layer's forward input in (which layers that do
	// not need their forward activation ignore).  scratch must hold at least
	// BackwardWorkspaceElems() elements for layers that report a non-zero
	// workspace; others ignore it.  dIn is fully overwritten.
	BackwardDataInto(in, dOut, dIn *tensor.Tensor, scratch []float32) error
	// BackwardWorkspaceElems returns the scratch BackwardDataInto needs, in
	// float32 elements (zero for most layers).
	BackwardWorkspaceElems() int
}

// TrainableLayer is implemented by layers with parameters: they additionally
// compute a parameter gradient and apply an SGD step to their (clone-shared)
// parameter storage.
type TrainableLayer interface {
	BackwardLayer
	// GradShape is the logical shape of the parameter-gradient tensor.
	GradShape() tensor.Shape
	// BackwardFilterInto computes d(loss)/d(params) into dW (shape GradShape,
	// NCHW) from the layer's forward input and the incoming gradient.
	// scratch must hold at least GradWorkspaceElems() elements.
	BackwardFilterInto(in, dOut, dW *tensor.Tensor, scratch []float32) error
	// GradWorkspaceElems returns the scratch BackwardFilterInto needs, in
	// float32 elements.
	GradWorkspaceElems() int
	// ApplySGD updates the parameters in place: W -= lr · dW, dW in NCHW as
	// BackwardFilterInto writes it (any other layout is an error).
	// Parameters are shared across rebatched clones, so the update is visible
	// through every view of the layer.  Not safe concurrently with forward
	// passes over the same parameter storage.
	ApplySGD(dW *tensor.Tensor, lr float32) error
}

// GradientAlg is the kernel l's gradient methods run, the algorithm a
// training program records on its gradient ops: GEMM for a convolution,
// whatever its forward runs, and kernels.ConvAlgDirect (the layer's own
// kernels) for every other layer.
func GradientAlg(l Layer) kernels.ConvAlgorithm {
	if _, ok := l.(*Conv); ok {
		return kernels.ConvAlgGemm
	}
	return kernels.ConvAlgDirect
}

// BackwardDataInto implements BackwardLayer with the GEMM input gradient: the
// input gradient depends only on the incoming gradient and the filter bank,
// so the forward input is ignored.
func (c *Conv) BackwardDataInto(_, dOut, dIn *tensor.Tensor, scratch []float32) error {
	return kernels.ConvGemmBackwardDataInto(dOut, c.Filters(), dIn, c.Cfg, scratch)
}

// BackwardWorkspaceElems implements BackwardLayer: the GEMM input gradient's
// packed operands.
func (c *Conv) BackwardWorkspaceElems() int {
	return kernels.ConvGemmBackwardDataWorkspaceElems(c.Cfg)
}

// GradShape implements TrainableLayer: the filter bank's K×C×FH×FW shape.
func (c *Conv) GradShape() tensor.Shape { return c.Cfg.FilterShape() }

// BackwardFilterInto implements TrainableLayer with the GEMM filter gradient.
func (c *Conv) BackwardFilterInto(in, dOut, dW *tensor.Tensor, scratch []float32) error {
	return kernels.ConvGemmBackwardFilterInto(in, dOut, dW, c.Cfg, scratch)
}

// GradWorkspaceElems implements TrainableLayer: the GEMM filter gradient's
// packed operands.
func (c *Conv) GradWorkspaceElems() int {
	return kernels.ConvGemmBackwardFilterWorkspaceElems(c.Cfg)
}

// ApplySGD implements TrainableLayer: the filter bank (shared across
// rebatched clones) is updated in place, and the packed GEMM operand — if a
// GEMM program materialised it — is refreshed so subsequent GEMM forwards see
// the new weights.
func (c *Conv) ApplySGD(dW *tensor.Tensor, lr float32) error {
	filters := c.Filters()
	if dW.Shape != filters.Shape || dW.Layout != filters.Layout {
		return fmt.Errorf("layers: %s: sgd dW is %v %v, want %v %v", c.LayerName, dW.Shape, dW.Layout, filters.Shape, filters.Layout)
	}
	for i, g := range dW.Data {
		filters.Data[i] -= lr * g
	}
	c.refreshPacked()
	return nil
}

// BackwardDataInto implements BackwardLayer: max pooling routes each gradient
// to its window's argmax in the forward input, average pooling spreads it.
func (p *Pool) BackwardDataInto(in, dOut, dIn *tensor.Tensor, _ []float32) error {
	return kernels.PoolBackwardInto(in, dOut, dIn, p.Cfg)
}

// BackwardWorkspaceElems implements BackwardLayer.
func (p *Pool) BackwardWorkspaceElems() int { return 0 }

// BackwardDataInto implements BackwardLayer: the gradient is masked by the
// sign of the forward input.
func (r *ReLU) BackwardDataInto(in, dOut, dIn *tensor.Tensor, _ []float32) error {
	return kernels.ReLUBackwardInto(in, dOut, dIn)
}

// BackwardWorkspaceElems implements BackwardLayer.
func (r *ReLU) BackwardWorkspaceElems() int { return 0 }

// BackwardDataInto implements BackwardLayer: dIn[n][k] = Σ_o dOut[n][o] ·
// W[o][k].  The input gradient depends only on the weights, so the forward
// input is ignored.  Each image row is computed by one worker, so the result
// is bit-deterministic for any worker count.
func (f *FullyConnected) BackwardDataInto(_, dOut, dIn *tensor.Tensor, _ []float32) error {
	if dOut.Shape != f.OutputShape() {
		return fmt.Errorf("layers: %s: backward dOut shape %v, want %v", f.LayerName, dOut.Shape, f.OutputShape())
	}
	if dIn.Shape.Elems() != f.InputShape().Elems() || dIn.Shape.N != f.Batch {
		return fmt.Errorf("layers: %s: backward dIn shape %v incompatible with %v", f.LayerName, dIn.Shape, f.InputShape())
	}
	par.Planes(f.Batch, fcBackwardJob{f: f, w: f.Weights(), dOut: dOut, dst: dIn}, fcBackwardDataRow)
	return nil
}

// fcBackwardJob is the by-value job of the two fully-connected backward
// passes: dst is dIn for the data pass, dW for the filter pass (which also
// reads the forward input in).
type fcBackwardJob struct {
	f             *FullyConnected
	w             []float32
	in, dOut, dst *tensor.Tensor
}

// fcBackwardDataRow computes image n's row of the input gradient.  In NCHW
// it keeps eight float64 sums in registers and walks eight weights of a row
// at a time, each sum o-ascending as the generic loop does, so both agree bit
// for bit.
func fcBackwardDataRow(j fcBackwardJob, n int) {
	f, w, dOut, dIn := j.f, j.w, j.dOut, j.dst
	if dOut.Layout == tensor.NCHW && dIn.Layout == tensor.NCHW {
		gRow := dOut.Data[n*f.OutDim : (n+1)*f.OutDim]
		dRow := dIn.Data[n*f.InDim : (n+1)*f.InDim]
		k := 0
		for ; k+8 <= f.InDim; k += 8 {
			var a0, a1, a2, a3, a4, a5, a6, a7 float64
			for o, g := range gRow {
				x, r := float64(g), (*[8]float32)(w[o*f.InDim+k:])
				a0 += x * float64(r[0])
				a1 += x * float64(r[1])
				a2 += x * float64(r[2])
				a3 += x * float64(r[3])
				a4 += x * float64(r[4])
				a5 += x * float64(r[5])
				a6 += x * float64(r[6])
				a7 += x * float64(r[7])
			}
			*(*[8]float32)(dRow[k:]) = [8]float32{float32(a0), float32(a1), float32(a2), float32(a3), float32(a4), float32(a5), float32(a6), float32(a7)}
		}
		for ; k < f.InDim; k++ {
			var acc float64
			for o, g := range gRow {
				acc += float64(g) * float64(w[o*f.InDim+k])
			}
			dRow[k] = float32(acc)
		}
		return
	}
	for k := 0; k < f.InDim; k++ {
		var acc float64
		for o := 0; o < f.OutDim; o++ {
			acc += float64(dOut.At(n, o, 0, 0)) * float64(w[o*f.InDim+k])
		}
		dIn.Set(n, k, 0, 0, float32(acc))
	}
}

// BackwardWorkspaceElems implements BackwardLayer.
func (f *FullyConnected) BackwardWorkspaceElems() int { return 0 }

// GradWorkspaceElems implements TrainableLayer.
func (f *FullyConnected) GradWorkspaceElems() int { return 0 }

// GradShape implements TrainableLayer: the OutDim×InDim weight matrix carried
// N×C×1×1 like the weights themselves.
func (f *FullyConnected) GradShape() tensor.Shape {
	return tensor.Shape{N: f.OutDim, C: f.InDim, H: 1, W: 1}
}

// BackwardFilterInto implements TrainableLayer: dW[o][k] = Σ_n dOut[n][o] ·
// in[n][k], with `in` the flattened feature matrix the forward pass consumed.
// Each weight row is accumulated by one worker over the batch in a fixed
// order; the fast path keeps a float64 accumulator row pattern equivalent to
// the generic one (per-element float64 adds in n order), so both paths agree
// bit for bit.
func (f *FullyConnected) BackwardFilterInto(in, dOut, dW *tensor.Tensor, _ []float32) error {
	if in.Shape.Elems() != f.InputShape().Elems() || in.Shape.N != f.Batch {
		return fmt.Errorf("layers: %s: backward input shape %v incompatible with %v", f.LayerName, in.Shape, f.InputShape())
	}
	if dOut.Shape != f.OutputShape() {
		return fmt.Errorf("layers: %s: backward dOut shape %v, want %v", f.LayerName, dOut.Shape, f.OutputShape())
	}
	if dW.Shape != f.GradShape() {
		return fmt.Errorf("layers: %s: backward dW shape %v, want %v", f.LayerName, dW.Shape, f.GradShape())
	}
	par.Planes(f.OutDim, fcBackwardJob{f: f, in: in, dOut: dOut, dst: dW}, fcBackwardFilterRow)
	return nil
}

// fcBackwardFilterRow computes weight row o of the parameter gradient.  In
// NCHW it keeps eight float64 sums in registers and walks eight inputs of a
// row at a time, each sum n-ascending as the generic loop does.
func fcBackwardFilterRow(j fcBackwardJob, o int) {
	f, in, dOut, dW := j.f, j.in, j.dOut, j.dst
	if in.Layout == tensor.NCHW && dOut.Layout == tensor.NCHW && dW.Layout == tensor.NCHW {
		wRow := dW.Data[o*f.InDim : (o+1)*f.InDim]
		k := 0
		for ; k+8 <= f.InDim; k += 8 {
			var a0, a1, a2, a3, a4, a5, a6, a7 float64
			for n := 0; n < f.Batch; n++ {
				x, r := float64(dOut.Data[n*f.OutDim+o]), (*[8]float32)(in.Data[n*f.InDim+k:])
				a0 += x * float64(r[0])
				a1 += x * float64(r[1])
				a2 += x * float64(r[2])
				a3 += x * float64(r[3])
				a4 += x * float64(r[4])
				a5 += x * float64(r[5])
				a6 += x * float64(r[6])
				a7 += x * float64(r[7])
			}
			*(*[8]float32)(wRow[k:]) = [8]float32{float32(a0), float32(a1), float32(a2), float32(a3), float32(a4), float32(a5), float32(a6), float32(a7)}
		}
		for ; k < f.InDim; k++ {
			var acc float64
			for n := 0; n < f.Batch; n++ {
				acc += float64(dOut.Data[n*f.OutDim+o]) * float64(in.Data[n*f.InDim+k])
			}
			wRow[k] = float32(acc)
		}
		return
	}
	for k := 0; k < f.InDim; k++ {
		var acc float64
		for n := 0; n < f.Batch; n++ {
			acc += float64(dOut.At(n, o, 0, 0)) * float64(in.At(n, k, 0, 0))
		}
		dW.Set(o, k, 0, 0, float32(acc))
	}
}

// ApplySGD implements TrainableLayer: the weight matrix (shared across
// rebatched clones through one backing slice) is updated in place.
func (f *FullyConnected) ApplySGD(dW *tensor.Tensor, lr float32) error {
	if dW.Shape != f.GradShape() {
		return fmt.Errorf("layers: %s: sgd dW shape %v, want %v", f.LayerName, dW.Shape, f.GradShape())
	}
	if dW.Layout != tensor.NCHW {
		return fmt.Errorf("layers: %s: sgd dW is %v, want NCHW", f.LayerName, dW.Layout)
	}
	w := f.Weights()
	for i, g := range dW.Data {
		w[i] -= lr * g
	}
	return nil
}

// BackwardWorkspaceElems implements BackwardLayer: two per-channel staging
// rows.
func (l *LRN) BackwardWorkspaceElems() int { return 2 * l.Shape.C }

// BackwardDataInto implements BackwardLayer.  With y_i = x_i · s_i^{-β} and
// s_i = 1 + (α/size)·Σ_{j∈win(i)} x_j², the gradient is
//
//	dX_j = dY_j · s_j^{-β} - (2αβ/size) · x_j · Σ_{i: j∈win(i)} dY_i · x_i · s_i^{-β-1}
//
// and window membership is symmetric, so the same clamped window serves both
// directions.  The scratch stages the per-channel s^{-β} and dY·x·s^{-β-1}
// rows; the pass is sequential in a fixed order, so it is trivially
// bit-deterministic.
func (l *LRN) BackwardDataInto(in, dOut, dIn *tensor.Tensor, scratch []float32) error {
	if in.Shape != l.Shape {
		return fmt.Errorf("layers: %s: backward input shape %v, want %v", l.LayerName, in.Shape, l.Shape)
	}
	if dOut.Shape != l.Shape {
		return fmt.Errorf("layers: %s: backward dOut shape %v, want %v", l.LayerName, dOut.Shape, l.Shape)
	}
	if dIn.Shape != l.Shape {
		return fmt.Errorf("layers: %s: backward dIn shape %v, want %v", l.LayerName, dIn.Shape, l.Shape)
	}
	if len(scratch) < l.BackwardWorkspaceElems() {
		return fmt.Errorf("layers: %s: scratch has %d elements, want at least %d", l.LayerName, len(scratch), l.BackwardWorkspaceElems())
	}
	half := l.LocalSize / 2
	C := l.Shape.C
	pow, prod := scratch[:C], scratch[C:2*C]
	coef := 2 * l.Alpha * l.Beta / float64(l.LocalSize)
	for n := 0; n < l.Shape.N; n++ {
		for h := 0; h < l.Shape.H; h++ {
			for w := 0; w < l.Shape.W; w++ {
				for c := 0; c < C; c++ {
					lo, hi := c-half, c+half
					if lo < 0 {
						lo = 0
					}
					if hi >= C {
						hi = C - 1
					}
					var sq float64
					for cc := lo; cc <= hi; cc++ {
						v := float64(in.At(n, cc, h, w))
						sq += v * v
					}
					s := 1 + l.Alpha/float64(l.LocalSize)*sq
					sInv := math.Pow(s, -l.Beta-1)
					pow[c] = float32(sInv * s) // s^{-β}
					prod[c] = float32(float64(dOut.At(n, c, h, w)) * float64(in.At(n, c, h, w)) * sInv)
				}
				for c := 0; c < C; c++ {
					lo, hi := c-half, c+half
					if lo < 0 {
						lo = 0
					}
					if hi >= C {
						hi = C - 1
					}
					var acc float64
					for cc := lo; cc <= hi; cc++ {
						acc += float64(prod[cc])
					}
					g := float64(dOut.At(n, c, h, w))*float64(pow[c]) - coef*float64(in.At(n, c, h, w))*acc
					dIn.Set(n, c, h, w, float32(g))
				}
			}
		}
	}
	return nil
}
