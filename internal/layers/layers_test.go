package layers

import (
	"math"
	"testing"

	"memcnn/internal/kernels"
	"memcnn/internal/tensor"
)

func testConvLayer(t *testing.T) *Conv {
	t.Helper()
	c, err := NewConv("conv1", kernels.ConvConfig{N: 2, C: 3, H: 8, W: 8, K: 4, FH: 3, FW: 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewConvValidation(t *testing.T) {
	if _, err := NewConv("bad", kernels.ConvConfig{}, 1); err == nil {
		t.Error("invalid conv config must be rejected")
	}
	c := testConvLayer(t)
	if c.Name() != "conv1" {
		t.Errorf("Name = %q", c.Name())
	}
	if c.InputShape() != (tensor.Shape{N: 2, C: 3, H: 8, W: 8}) {
		t.Errorf("InputShape = %v", c.InputShape())
	}
	if c.OutputShape() != (tensor.Shape{N: 2, C: 4, H: 6, W: 6}) {
		t.Errorf("OutputShape = %v", c.OutputShape())
	}
}

// TestConvSupportsLayouts: the convolution's kernel and its direct reference
// run in both layouts, and an activation in a layout past tensor.Layouts
// cannot be built to feed one.
func TestConvSupportsLayouts(t *testing.T) {
	c := testConvLayer(t)
	for _, lay := range tensor.Layouts {
		for _, reference := range []bool{false, true} {
			if _, err := Forward(c, tensor.Random(c.InputShape(), lay, 1), reference); err != nil {
				t.Errorf("%v reference=%t: %v", lay, reference, err)
			}
		}
	}
	if _, err := tensor.NewFrom(c.InputShape(), tensor.Layout(9), make([]float32, c.InputShape().Elems())); err == nil {
		t.Error("an activation in an invalid layout must be rejected")
	}
}

// TestConvForwardMatchesKernels: the layer's forward is the im2col+GEMM
// kernel on its packed filters, and the reference switch the direct kernel,
// each exactly.
func TestConvForwardMatchesKernels(t *testing.T) {
	c := testConvLayer(t)
	in := tensor.Random(c.InputShape(), tensor.CHWN, 7)
	got, err := Forward(c, in, false)
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.New(c.OutputShape(), tensor.CHWN)
	scratch := make([]float32, kernels.ConvGemmWorkspaceElems(c.Cfg, tensor.CHWN))
	if err := kernels.ConvIm2colGemmInto(in, c.PackedFilters(), want, c.Cfg, scratch); err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(got, want, 0) {
		t.Error("layer forward differs from the GEMM kernel")
	}
	if got.Layout != in.Layout {
		t.Error("forward should preserve the input layout")
	}
	ref, err := Forward(c, in, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := kernels.ConvDirectInto(in, c.Filters(), want, c.Cfg); err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(ref, want, 0) {
		t.Error("reference forward differs from the direct kernel")
	}
}

func TestPoolLayer(t *testing.T) {
	p, err := NewPool("pool1", kernels.PoolConfig{N: 4, C: 2, H: 8, W: 8, Window: 2, Stride: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPool("bad", kernels.PoolConfig{}); err == nil {
		t.Error("invalid pool config must be rejected")
	}
	if p.OutputShape() != (tensor.Shape{N: 4, C: 2, H: 4, W: 4}) {
		t.Errorf("OutputShape = %v", p.OutputShape())
	}

	in := tensor.Random(p.InputShape(), tensor.NCHW, 3)
	out, err := Forward(p, in, false)
	if err != nil {
		t.Fatal(err)
	}
	if out.Shape != p.OutputShape() {
		t.Errorf("forward output shape %v", out.Shape)
	}
}

func TestSoftmaxLayer(t *testing.T) {
	s, err := NewSoftmax("prob", kernels.SoftmaxConfig{N: 8, Classes: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSoftmax("bad", kernels.SoftmaxConfig{}); err == nil {
		t.Error("invalid softmax config must be rejected")
	}
	if s.InputShape() != (tensor.Shape{N: 8, C: 10, H: 1, W: 1}) {
		t.Errorf("InputShape = %v", s.InputShape())
	}

	in := tensor.Random(s.InputShape(), tensor.NCHW, 5)
	out, err := Forward(s, in, false)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 8; n++ {
		var sum float64
		for c := 0; c < 10; c++ {
			sum += float64(out.At(n, c, 0, 0))
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Errorf("row %d sums to %v", n, sum)
		}
	}
	wrong := tensor.New(tensor.Shape{N: 8, C: 11, H: 1, W: 1}, tensor.NCHW)
	if _, err := Forward(s, wrong, false); err == nil {
		t.Error("wrong input shape must be rejected")
	}
}

func TestFullyConnectedLayer(t *testing.T) {
	fc, err := NewFullyConnected("fc1", 4, 6, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFullyConnected("bad", 0, 1, 1, 0); err == nil {
		t.Error("invalid dims must be rejected")
	}
	if fc.OutputShape() != (tensor.Shape{N: 4, C: 3, H: 1, W: 1}) {
		t.Errorf("OutputShape = %v", fc.OutputShape())
	}

	// Functional check against a hand-computed case: weights from the
	// deterministic generator, identity-like input.
	in := tensor.Random(tensor.Shape{N: 4, C: 6, H: 1, W: 1}, tensor.NCHW, 9)
	out, err := Forward(fc, in, false)
	if err != nil {
		t.Fatal(err)
	}
	w := fc.Weights()
	for n := 0; n < 4; n++ {
		for o := 0; o < 3; o++ {
			var want float64
			for k := 0; k < 6; k++ {
				want += float64(in.At(n, k, 0, 0)) * float64(w[o*6+k])
			}
			if math.Abs(float64(out.At(n, o, 0, 0))-want) > 1e-4 {
				t.Fatalf("fc output (%d,%d) = %v, want %v", n, o, out.At(n, o, 0, 0), want)
			}
		}
	}
	// Flattened 4-D input from a conv layer must also be accepted.
	conv4d := tensor.Random(tensor.Shape{N: 4, C: 2, H: 3, W: 1}, tensor.CHWN, 3)
	if _, err := Forward(fc, conv4d, false); err != nil {
		t.Errorf("4-D input with matching element count must be accepted: %v", err)
	}
	wrong := tensor.Random(tensor.Shape{N: 4, C: 7, H: 1, W: 1}, tensor.NCHW, 3)
	if _, err := Forward(fc, wrong, false); err == nil {
		t.Error("mismatched input must be rejected")
	}
}

func TestReLULayer(t *testing.T) {
	shape := tensor.Shape{N: 2, C: 3, H: 4, W: 4}
	r, err := NewReLU("relu1", shape)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewReLU("bad", tensor.Shape{}); err == nil {
		t.Error("invalid shape must be rejected")
	}
	in := tensor.Random(shape, tensor.NCHW, 1)
	out, err := Forward(r, in, false)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out.Data {
		if v < 0 {
			t.Fatalf("negative value %v survived ReLU at %d", v, i)
		}
		if in.Data[i] > 0 && v != in.Data[i] {
			t.Fatalf("positive value altered at %d", i)
		}
	}
	if _, err := Forward(r, tensor.New(tensor.Shape{N: 1, C: 1, H: 1, W: 1}, tensor.NCHW), false); err == nil {
		t.Error("wrong shape must be rejected")
	}
}

func TestLRNLayer(t *testing.T) {
	shape := tensor.Shape{N: 2, C: 8, H: 3, W: 3}
	l, err := NewLRN("norm1", shape, 5, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewLRN("bad", tensor.Shape{}, 5, 0, 0); err == nil {
		t.Error("invalid shape must be rejected")
	}
	if _, err := NewLRN("bad", shape, 0, 0, 0); err == nil {
		t.Error("invalid local size must be rejected")
	}
	if l.Alpha == 0 || l.Beta == 0 {
		t.Error("defaults must be applied")
	}
	in := tensor.Random(shape, tensor.NCHW, 11)
	out, err := Forward(l, in, false)
	if err != nil {
		t.Fatal(err)
	}
	// LRN shrinks magnitudes (scale <= 1) and preserves sign.
	for n := 0; n < shape.N; n++ {
		for c := 0; c < shape.C; c++ {
			for h := 0; h < shape.H; h++ {
				for w := 0; w < shape.W; w++ {
					iv, ov := in.At(n, c, h, w), out.At(n, c, h, w)
					if math.Abs(float64(ov)) > math.Abs(float64(iv))+1e-6 {
						t.Fatalf("LRN increased magnitude at (%d,%d,%d,%d)", n, c, h, w)
					}
					if iv > 0 && ov < 0 || iv < 0 && ov > 0 {
						t.Fatalf("LRN flipped sign at (%d,%d,%d,%d)", n, c, h, w)
					}
				}
			}
		}
	}
	if _, err := Forward(l, tensor.New(tensor.Shape{N: 1, C: 1, H: 1, W: 1}, tensor.NCHW), false); err == nil {
		t.Error("wrong shape must be rejected")
	}
}

// TestWithBatchSharesWeights checks the WithBatch contract: a rebatched conv
// or fully-connected layer adopts its parent's weight storage lazily — same
// backing arrays, no regeneration — and the packed GEMM operand is only
// materialised when a GEMM program asks for it.
func TestWithBatchSharesWeights(t *testing.T) {
	c := testConvLayer(t)
	rb, err := c.WithBatch(5)
	if err != nil {
		t.Fatal(err)
	}
	nc := rb.(*Conv)
	if nc.InputShape().N != 5 || nc.OutputShape().N != 5 {
		t.Fatalf("rebatched conv has shapes %v -> %v, want batch 5", nc.InputShape(), nc.OutputShape())
	}
	if nc.packed != nil || c.packed != nil {
		t.Error("WithBatch materialised the packed GEMM operand eagerly")
	}
	if &nc.Filters().Data[0] != &c.Filters().Data[0] {
		t.Error("rebatched conv does not share its parent's filter storage")
	}
	if &nc.PackedFilters()[0] != &c.PackedFilters()[0] {
		t.Error("rebatched conv does not share its parent's packed operand")
	}

	f, err := NewFullyConnected("fc1", 2, 12, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := f.WithBatch(3)
	if err != nil {
		t.Fatal(err)
	}
	nf := rf.(*FullyConnected)
	if &nf.Weights()[0] != &f.Weights()[0] {
		t.Error("rebatched fully-connected layer does not share its parent's weights")
	}
}
