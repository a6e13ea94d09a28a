package layers

import (
	"fmt"

	"memcnn/internal/kernels"
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
// W[o][k], the contraction with the images as rows and the features, which
// are contiguous in W, as lanes.  The input gradient depends only on the
// weights, so the forward input is ignored.
func (f *FullyConnected) BackwardDataInto(_, dOut, dIn *tensor.Tensor, _ []float32) error {
	if dOut.Shape != f.OutputShape() {
		return fmt.Errorf("layers: %s: backward dOut shape %v, want %v", f.LayerName, dOut.Shape, f.OutputShape())
	}
	if dIn.Shape.Elems() != f.InputShape().Elems() || dIn.Shape.N != f.Batch {
		return fmt.Errorf("layers: %s: backward dIn shape %v incompatible with %v", f.LayerName, dIn.Shape, f.InputShape())
	}
	xn, xk, ok := flatStrides(dIn)
	if !ok {
		return fmt.Errorf("layers: %s: backward dIn %v %v does not flatten to one feature stride", f.LayerName, dIn.Shape, dIn.Layout)
	}
	g := stridesOf(dOut)
	kernels.FCInto(kernels.FC{Rows: f.Batch, Lanes: f.InDim, Steps: f.OutDim,
		A: dOut.Data, ARow: g.n, AStep: g.c,
		B: f.Weights(), BStep: f.InDim, BLane: 1,
		Out: dIn.Data, OutRow: xn, OutLane: xk})
	return nil
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
// in[n][k], with `in` the flattened feature matrix the forward pass consumed:
// the contraction with the outputs as rows, the features as lanes and the
// images as steps.  The features are contiguous in an NCHW input; in CHWN
// no free axis is, and the portable body walks the strides.
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
	xn, xk, ok := flatStrides(in)
	if !ok {
		return fmt.Errorf("layers: %s: backward input %v %v does not flatten to one feature stride", f.LayerName, in.Shape, in.Layout)
	}
	g, w := stridesOf(dOut), stridesOf(dW)
	kernels.FCInto(kernels.FC{Rows: f.OutDim, Lanes: f.InDim, Steps: f.Batch,
		A: dOut.Data, ARow: g.c, AStep: g.n,
		B: in.Data, BStep: xn, BLane: xk,
		Out: dW.Data, OutRow: w.n, OutLane: w.c})
	return nil
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
// directions.  It walks the pixels in (n, h, w) order and each pixel's
// channels along the tensors' strides, lrnLanes channels at a time; the
// scratch stages the pixel's s^{-β} and dY·x·s^{-β-1} rows, both rounded from
// s^{-β-1} through lrnScale.  The pass is sequential in a fixed order, so it
// is trivially bit-deterministic.
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
	alphaN, e := l.Alpha/float64(l.LocalSize), -l.Beta-1
	coef := 2 * l.Alpha * l.Beta / float64(l.LocalSize)
	x, dy, dx := stridesOf(in), stridesOf(dOut), stridesOf(dIn)
	var sTile, xdyTile [lrnLanes]float64
	for n := 0; n < l.Shape.N; n++ {
		for h := 0; h < l.Shape.H; h++ {
			for w := 0; w < l.Shape.W; w++ {
				xs := x.data[n*x.n+h*x.h+w*x.w:]
				dys := dy.data[n*dy.n+h*dy.h+w*dy.w:]
				dxs := dx.data[n*dx.n+h*dx.h+w*dx.w:]
				for c0 := 0; c0 < C; c0 += lrnLanes {
					s, xdy := sTile[:min(lrnLanes, C-c0)], xdyTile[:min(lrnLanes, C-c0)]
					for i := range s {
						c := c0 + i
						var sq float64
						for cc := max(c-half, 0); cc <= min(c+half, C-1); cc++ {
							v := float64(xs[cc*x.c])
							sq += v * v
						}
						s[i] = 1 + alphaN*sq
						xdy[i] = float64(dys[c*dy.c]) * float64(xs[c*x.c])
					}
					lrnScale(pow[c0:], 1, s, s, e)
					lrnScale(prod[c0:], 1, xdy, s, e)
				}
				for c := 0; c < C; c++ {
					var acc float64
					for _, p := range prod[max(c-half, 0) : min(c+half, C-1)+1] {
						acc += float64(p)
					}
					dxs[c*dx.c] = float32(float64(dys[c*dy.c])*float64(pow[c]) - coef*float64(xs[c*x.c])*acc)
				}
			}
		}
	}
	return nil
}
