package layers

import (
	"math"
	"testing"

	"memcnn/internal/kernels"
	"memcnn/internal/tensor"
)

// Finite-difference checks for the backward passes that live at the layer
// level (fully connected, LRN) plus the SGD update contract.  The probe is
// L(x) = Σ dOut·forward(x), whose gradient is the backward kernel applied to
// cotangent dOut.

const (
	fdStep = 1e-2
	fdTol  = 2e-2
)

func fdRelErr(a, b float64) float64 {
	return math.Abs(a-b) / math.Max(1, math.Abs(a)+math.Abs(b))
}

func probe(w, out []float32) float64 {
	var s float64
	for i, v := range out {
		s += float64(w[i]) * float64(v)
	}
	return s
}

func fdCheck(t *testing.T, name string, x, grad []float32, loss func() float64) {
	t.Helper()
	bad := 0
	for i := range x {
		orig := x[i]
		x[i] = orig + fdStep
		up := loss()
		x[i] = orig - fdStep
		down := loss()
		x[i] = orig
		fd := (up - down) / (2 * fdStep)
		if err := fdRelErr(fd, float64(grad[i])); err > fdTol {
			if bad < 5 {
				t.Errorf("%s: element %d: fd %v vs analytic %v (rel err %v)", name, i, fd, grad[i], err)
			}
			bad++
		}
	}
	if bad > 0 {
		t.Errorf("%s: %d/%d gradient elements outside tolerance", name, bad, len(x))
	}
}

func TestFullyConnectedBackwardGradient(t *testing.T) {
	fc := &FullyConnected{LayerName: "fc", Batch: 3, InDim: 7, OutDim: 4, Seed: 71}
	in := tensor.Random(fc.InputShape(), tensor.NCHW, 72)
	dOut := tensor.Random(fc.OutputShape(), tensor.NCHW, 73)

	out := tensor.New(fc.OutputShape(), tensor.NCHW)
	loss := func() float64 {
		if err := fc.ForwardInto(in, out, make([]float32, fc.Batch*fc.InDim)); err != nil {
			t.Fatal(err)
		}
		return probe(dOut.Data, out.Data)
	}

	dIn := tensor.New(fc.InputShape(), tensor.NCHW)
	if err := fc.BackwardDataInto(nil, dOut, dIn, nil); err != nil {
		t.Fatal(err)
	}
	fdCheck(t, "fc-bwd-data", in.Data, dIn.Data, loss)

	dW := tensor.New(fc.GradShape(), tensor.NCHW)
	if err := fc.BackwardFilterInto(in, dOut, dW, nil); err != nil {
		t.Fatal(err)
	}
	fdCheck(t, "fc-bwd-filter", fc.Weights(), dW.Data, loss)
}

func TestLRNBackwardGradient(t *testing.T) {
	shape := tensor.Shape{N: 2, C: 5, H: 3, W: 3}
	// A large alpha makes the normalisation term carry real gradient signal
	// (AlexNet's 1e-4 would vanish under the FD tolerance).
	lrn, err := NewLRN("lrn", shape, 3, 0.5, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.Random(shape, tensor.NCHW, 81)
	dOut := tensor.Random(shape, tensor.NCHW, 82)

	out := tensor.New(shape, tensor.NCHW)
	loss := func() float64 {
		if err := lrn.ForwardInto(in, out, nil); err != nil {
			t.Fatal(err)
		}
		return probe(dOut.Data, out.Data)
	}

	dIn := tensor.New(shape, tensor.NCHW)
	scratch := make([]float32, lrn.BackwardWorkspaceElems())
	if err := lrn.BackwardDataInto(in, dOut, dIn, scratch); err != nil {
		t.Fatal(err)
	}
	fdCheck(t, "lrn-bwd-data", in.Data, dIn.Data, loss)
}

// TestConvApplySGDRefreshesPacked checks the staleness contract: the GEMM
// path's packed filter copy must track an in-place weight update.
func TestConvApplySGDRefreshesPacked(t *testing.T) {
	conv, err := NewConv("conv", kernels.ConvConfig{N: 1, C: 2, H: 5, W: 5, K: 3, FH: 3, FW: 3, PadH: 1, PadW: 1}, 91)
	if err != nil {
		t.Fatal(err)
	}
	packedBefore := append([]float32(nil), conv.PackedFilters()...)

	dW := tensor.New(conv.GradShape(), tensor.NCHW)
	for i := range dW.Data {
		dW.Data[i] = float32(i%7) * 0.01
	}
	want := make([]float32, len(conv.Filters().Data))
	for i, w := range conv.Filters().Data {
		want[i] = w - 0.1*dW.Data[i]
	}
	if err := conv.ApplySGD(dW, 0.1); err != nil {
		t.Fatal(err)
	}
	for i, w := range conv.Filters().Data {
		if math.Float32bits(w) != math.Float32bits(want[i]) {
			t.Fatalf("filter %d: got %v want %v", i, w, want[i])
		}
	}
	packedAfter := conv.PackedFilters()
	same := true
	for i := range packedAfter {
		if packedAfter[i] != packedBefore[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("packed filters unchanged after SGD update")
	}
	// The packed copy must be the flattening of the updated filters: compare
	// against a freshly built conv holding the updated weights.
	fresh, err := NewConv("conv2", kernels.ConvConfig{N: 1, C: 2, H: 5, W: 5, K: 3, FH: 3, FW: 3, PadH: 1, PadW: 1}, 91)
	if err != nil {
		t.Fatal(err)
	}
	copy(fresh.Filters().Data, conv.Filters().Data)
	freshPacked := fresh.PackedFilters()
	for i := range packedAfter {
		if math.Float32bits(packedAfter[i]) != math.Float32bits(freshPacked[i]) {
			t.Fatalf("packed filter %d stale after SGD: got %v want %v", i, packedAfter[i], freshPacked[i])
		}
	}
}

func TestFullyConnectedApplySGD(t *testing.T) {
	fc := &FullyConnected{LayerName: "fc", Batch: 2, InDim: 3, OutDim: 2, Seed: 95}
	before := append([]float32(nil), fc.Weights()...)
	dW := tensor.New(fc.GradShape(), tensor.NCHW)
	for i := range dW.Data {
		dW.Data[i] = float32(i) * 0.5
	}
	if err := fc.ApplySGD(dW, 0.2); err != nil {
		t.Fatal(err)
	}
	for i, w := range fc.Weights() {
		want := before[i] - 0.2*dW.Data[i]
		if math.Float32bits(w) != math.Float32bits(want) {
			t.Fatalf("weight %d: got %v want %v", i, w, want)
		}
	}
}

// The training interfaces must be satisfied exactly as the compiler relies on
// them: every feature layer propagates gradients, conv and FC carry
// parameters, softmax deliberately stays outside (its backward only exists
// fused with the loss).
func TestTrainingInterfaceCompliance(t *testing.T) {
	var _ BackwardLayer = (*Conv)(nil)
	var _ BackwardLayer = (*Pool)(nil)
	var _ BackwardLayer = (*ReLU)(nil)
	var _ BackwardLayer = (*FullyConnected)(nil)
	var _ BackwardLayer = (*LRN)(nil)
	var _ TrainableLayer = (*Conv)(nil)
	var _ TrainableLayer = (*FullyConnected)(nil)
	if _, ok := interface{}(&Softmax{}).(BackwardLayer); ok {
		t.Fatal("softmax must not implement BackwardLayer: its backward is fused into the loss gradient")
	}
	if _, ok := interface{}(&Pool{}).(TrainableLayer); ok {
		t.Fatal("pool has no parameters and must not be trainable")
	}
}

// oldFCBackwardData and oldFCBackwardFilter are the NCHW loops the blocked
// fully-connected gradients replaced: one float64 sum per element, striding
// through the weights (data) or the input (filter).
func oldFCBackwardData(f *FullyConnected, dOut, dIn []float32) {
	w := f.Weights()
	for n := 0; n < f.Batch; n++ {
		for k := 0; k < f.InDim; k++ {
			var acc float64
			for o, g := range dOut[n*f.OutDim : (n+1)*f.OutDim] {
				acc += float64(g) * float64(w[o*f.InDim+k])
			}
			dIn[n*f.InDim+k] = float32(acc)
		}
	}
}

func oldFCBackwardFilter(f *FullyConnected, in, dOut, dW []float32) {
	for o := 0; o < f.OutDim; o++ {
		for k := 0; k < f.InDim; k++ {
			var acc float64
			for n := 0; n < f.Batch; n++ {
				acc += float64(dOut[n*f.OutDim+o]) * float64(in[n*f.InDim+k])
			}
			dW[o*f.InDim+k] = float32(acc)
		}
	}
}

// TestFullyConnectedGradientsMatchOldLoops holds both NCHW fully-connected
// gradients to the old loops bit for bit, on input widths below, at and
// across the contraction's blocks (LeNet's fc1 among them).
func TestFullyConnectedGradientsMatchOldLoops(t *testing.T) {
	for _, dims := range [][3]int{{3, 5, 4}, {16, 784, 100}, {4, 8, 10}, {5, 2*8 + 7, 3}} {
		f := &FullyConnected{LayerName: "fc", Batch: dims[0], InDim: dims[1], OutDim: dims[2], Seed: 17}
		in := tensor.Random(f.InputShape(), tensor.NCHW, 1)
		dOut := tensor.Random(f.OutputShape(), tensor.NCHW, 2)
		dIn, dW := tensor.New(f.InputShape(), tensor.NCHW), tensor.New(f.GradShape(), tensor.NCHW)
		if err := f.BackwardDataInto(nil, dOut, dIn, nil); err != nil {
			t.Fatal(err)
		}
		if err := f.BackwardFilterInto(in, dOut, dW, nil); err != nil {
			t.Fatal(err)
		}
		wantIn, wantW := make([]float32, len(dIn.Data)), make([]float32, len(dW.Data))
		oldFCBackwardData(f, dOut.Data, wantIn)
		oldFCBackwardFilter(f, in.Data, dOut.Data, wantW)
		for i := range wantIn {
			if math.Float32bits(dIn.Data[i]) != math.Float32bits(wantIn[i]) {
				t.Fatalf("%v: backward-data element %d = %v, old loop %v", dims, i, dIn.Data[i], wantIn[i])
			}
		}
		for i := range wantW {
			if math.Float32bits(dW.Data[i]) != math.Float32bits(wantW[i]) {
				t.Fatalf("%v: backward-filter element %d = %v, old loop %v", dims, i, dW.Data[i], wantW[i])
			}
		}
	}
}

// fcGradientsMatchOld runs both fully-connected gradients with in, dOut and
// dIn in lay on an input of shape inShape, and wants the old NCHW loops' bits
// for each element, read through the layout.
func fcGradientsMatchOld(t *testing.T, f *FullyConnected, inShape tensor.Shape, lay tensor.Layout) {
	t.Helper()
	in, dOut := tensor.Random(inShape, tensor.NCHW, 1), tensor.Random(f.OutputShape(), tensor.NCHW, 2)
	wantIn, wantW := make([]float32, inShape.Elems()), make([]float32, f.OutDim*f.InDim)
	oldFCBackwardData(f, dOut.Data, wantIn)
	oldFCBackwardFilter(f, in.Data, dOut.Data, wantW)
	dIn, dW := tensor.New(inShape, lay), tensor.New(f.GradShape(), tensor.NCHW)
	if err := f.BackwardDataInto(nil, tensor.Convert(dOut, lay), dIn, nil); err != nil {
		t.Fatal(err)
	}
	if err := f.BackwardFilterInto(tensor.Convert(in, lay), tensor.Convert(dOut, lay), dW, nil); err != nil {
		t.Fatal(err)
	}
	for i, v := range tensor.Convert(dIn, tensor.NCHW).Data {
		if math.Float32bits(v) != math.Float32bits(wantIn[i]) {
			t.Fatalf("%v %v: backward-data element %d = %v, old loop %v", inShape, lay, i, v, wantIn[i])
		}
	}
	for i, v := range dW.Data {
		if math.Float32bits(v) != math.Float32bits(wantW[i]) {
			t.Fatalf("%v %v: backward-filter element %d = %v, old loop %v", inShape, lay, i, v, wantW[i])
		}
	}
}

// TestFullyConnectedCHWNGradientsMatchNCHW holds both gradients with CHWN
// activations to the old NCHW loops bit for bit, on flat inputs and on
// feature maps, with batches and widths off the kernel's 8×4 blocks and
// outputs past its 256-step block (the data gradient steps over them).
func TestFullyConnectedCHWNGradientsMatchNCHW(t *testing.T) {
	for _, s := range []tensor.Shape{{N: 3, C: 5, H: 1, W: 1}, {N: 16, C: 784, H: 1, W: 1}, {N: 9, C: 7, H: 2, W: 3}, {N: 4, C: 3, H: 5, W: 4}} {
		for _, outDim := range []int{4, 19, 300} {
			f := &FullyConnected{LayerName: "fc", Batch: s.N, InDim: s.C * s.H * s.W, OutDim: outDim, Seed: 17}
			for _, lay := range []tensor.Layout{tensor.NCHW, tensor.CHWN} {
				fcGradientsMatchOld(t, f, s, lay)
			}
		}
	}
}

// FuzzFullyConnected runs the fully-connected forward from every input
// layout into NCHW and CHWN, and both gradients in NCHW and CHWN, against the
// old loops bit for bit, at batches, feature counts and outputs off the
// kernel's 8×4 blocks and its 256-step block.
func FuzzFullyConnected(f *testing.F) {
	f.Add(uint8(4), uint8(3), uint8(2), uint8(5), uint16(7), uint64(1))
	f.Add(uint8(9), uint8(40), uint8(3), uint8(3), uint16(19), uint64(2))
	f.Add(uint8(1), uint8(1), uint8(1), uint8(1), uint16(300), uint64(3))
	f.Fuzz(func(t *testing.T, batch, c, h, w uint8, outDim uint16, seed uint64) {
		s := tensor.Shape{N: int(batch%20) + 1, C: int(c%48) + 1, H: int(h%4) + 1, W: int(w%4) + 1}
		fc, err := NewFullyConnected("fc", s.N, s.C*s.H*s.W, int(outDim%300)+1, seed)
		if err != nil {
			t.Fatal(err)
		}
		forwardMatchesOld(t, fc, s, func(in, dst *tensor.Tensor) { oldFullyConnectedForward(fc, in, dst) })
		for _, lay := range []tensor.Layout{tensor.NCHW, tensor.CHWN} {
			fcGradientsMatchOld(t, fc, s, lay)
		}
	})
}

// TestApplySGDRejectsOtherLayouts: the compiler allocates every parameter
// gradient in NCHW, so a gradient in another layout is an error, not a
// slower path.
func TestApplySGDRejectsOtherLayouts(t *testing.T) {
	fc := &FullyConnected{LayerName: "fc", Batch: 2, InDim: 3, OutDim: 2, Seed: 95}
	if err := fc.ApplySGD(tensor.New(fc.GradShape(), tensor.CHWN), 0.1); err == nil {
		t.Error("fully-connected SGD took a CHWN gradient")
	}
	conv, err := NewConv("conv", kernels.ConvConfig{N: 1, C: 2, H: 5, W: 5, K: 3, FH: 3, FW: 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := conv.ApplySGD(tensor.New(conv.GradShape(), tensor.CHWN), 0.1); err == nil {
		t.Error("convolution SGD took a CHWN gradient")
	}
}
