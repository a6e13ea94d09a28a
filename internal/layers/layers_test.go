package layers

import (
	"math"
	"testing"

	"memcnn/internal/gpusim"
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

func TestConvSupportsLayouts(t *testing.T) {
	c := testConvLayer(t)
	if !c.SupportsLayout(tensor.CHWN) || !c.SupportsLayout(tensor.NCHW) {
		t.Error("conv must support CHWN and NCHW")
	}
	if c.SupportsLayout(tensor.NHWC) {
		t.Error("conv should not claim NHWC support")
	}
}

func TestConvCostByLayoutAndImpl(t *testing.T) {
	d := gpusim.TitanBlack()
	c := testConvLayer(t)

	chwn, err := c.Cost(d, tensor.CHWN, CostOptions{})
	if err != nil || len(chwn) != 1 {
		t.Fatalf("CHWN cost: %v (%d kernels)", err, len(chwn))
	}
	nchw, err := c.Cost(d, tensor.NCHW, CostOptions{})
	if err != nil || len(nchw) != 2 {
		t.Fatalf("NCHW cost: %v (%d kernels, want im2col+gemm)", err, len(nchw))
	}
	if _, err := c.Cost(d, tensor.NCHW, CostOptions{Conv: ConvBestNCHW}); err != nil {
		t.Errorf("best-NCHW cost: %v", err)
	}
	if _, err := c.Cost(d, tensor.NCHW, CostOptions{Conv: ConvFFTImpl}); err != nil {
		t.Errorf("FFT cost on a small layer should fit: %v", err)
	}
	if _, err := c.Cost(d, tensor.CHWN, CostOptions{Conv: ConvGemmImpl}); err == nil {
		t.Error("GEMM convolution must be rejected in CHWN")
	}
	if _, err := c.Cost(d, tensor.NCHW, CostOptions{Conv: ConvDirectImpl}); err == nil {
		t.Error("direct convolution must be rejected in NCHW")
	}
	if _, err := c.Cost(d, tensor.NHWC, CostOptions{}); err == nil {
		t.Error("unsupported layout must be rejected")
	}
}

func TestConvBestNCHWNeverSlowerThanGemm(t *testing.T) {
	d := gpusim.TitanBlack()
	cfgs := []kernels.ConvConfig{
		{N: 64, C: 256, H: 13, W: 13, K: 384, FH: 3, FW: 3},
		{N: 128, C: 16, H: 14, W: 14, K: 16, FH: 5, FW: 5},
		{N: 32, C: 128, H: 56, W: 56, K: 256, FH: 3, FW: 3},
	}
	for _, cfg := range cfgs {
		c, err := NewConv("c", cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		gemm, err := c.Cost(d, tensor.NCHW, CostOptions{Conv: ConvGemmImpl})
		if err != nil {
			t.Fatal(err)
		}
		best, err := c.Cost(d, tensor.NCHW, CostOptions{Conv: ConvBestNCHW})
		if err != nil {
			t.Fatal(err)
		}
		gemmT, _ := gpusim.EstimateSequence(d, gemm)
		bestT, _ := gpusim.EstimateSequence(d, best)
		if bestT > gemmT*1.0001 {
			t.Errorf("%v: best-NCHW (%.0fus) slower than GEMM (%.0fus)", cfg, bestT, gemmT)
		}
	}
}

func TestConvForwardMatchesKernels(t *testing.T) {
	c := testConvLayer(t)
	in := tensor.Random(c.InputShape(), tensor.CHWN, 7)
	got, err := Forward(c, in, kernels.ConvAlgDirect)
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.New(c.OutputShape(), tensor.CHWN)
	if err := kernels.ConvDirectInto(in, c.Filters(), want, c.Cfg); err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(got, want, 0) {
		t.Error("layer forward differs from the kernel reference")
	}
	if got.Layout != in.Layout {
		t.Error("forward should preserve the input layout")
	}
}

func TestPoolLayer(t *testing.T) {
	d := gpusim.TitanBlack()
	p, err := NewPool("pool1", kernels.PoolConfig{N: 4, C: 2, H: 8, W: 8, Window: 2, Stride: 2, Op: kernels.MaxPool})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPool("bad", kernels.PoolConfig{}); err == nil {
		t.Error("invalid pool config must be rejected")
	}
	if p.OutputShape() != (tensor.Shape{N: 4, C: 2, H: 4, W: 4}) {
		t.Errorf("OutputShape = %v", p.OutputShape())
	}

	if _, err := p.Cost(d, tensor.CHWN, CostOptions{}); err != nil {
		t.Errorf("plain CHWN pooling: %v", err)
	}
	if _, err := p.Cost(d, tensor.CHWN, CostOptions{Pool: PoolOptimized}); err != nil {
		t.Errorf("optimised CHWN pooling: %v", err)
	}
	if _, err := p.Cost(d, tensor.NCHW, CostOptions{Pool: PoolCuDNNVariant}); err != nil {
		t.Errorf("cuDNN NCHW pooling: %v", err)
	}
	if _, err := p.Cost(d, tensor.NCHW, CostOptions{Pool: PoolOptimized}); err == nil {
		t.Error("optimised pooling must require CHWN")
	}
	if _, err := p.Cost(d, tensor.CHWN, CostOptions{Pool: PoolCuDNNVariant}); err == nil {
		t.Error("cuDNN pooling must require NCHW")
	}
	if _, err := p.Cost(d, tensor.HWCN, CostOptions{}); err == nil {
		t.Error("unsupported layout must be rejected")
	}

	in := tensor.Random(p.InputShape(), tensor.NCHW, 3)
	out, err := Forward(p, in, kernels.ConvAlgDirect)
	if err != nil {
		t.Fatal(err)
	}
	if out.Shape != p.OutputShape() {
		t.Errorf("forward output shape %v", out.Shape)
	}
}

func TestPoolOptimizedDefaultExpansion(t *testing.T) {
	d := gpusim.TitanBlack()
	p, err := NewPool("pool3", kernels.PoolConfig{N: 128, C: 64, H: 24, W: 24, Window: 3, Stride: 2, Op: kernels.MaxPool})
	if err != nil {
		t.Fatal(err)
	}
	def, err := p.Cost(d, tensor.CHWN, CostOptions{Pool: PoolOptimized})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := p.Cost(d, tensor.CHWN, CostOptions{Pool: PoolOptimized, PoolExpansion: kernels.PoolExpansion{H: 2, W: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if def[0].DRAMReadBytes != explicit[0].DRAMReadBytes {
		t.Error("default expansion should be 2x2")
	}
}

func TestSoftmaxLayer(t *testing.T) {
	d := gpusim.TitanBlack()
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
	if _, err := s.Cost(d, tensor.NCHW, CostOptions{Softmax: kernels.SoftmaxFusedParallel}); err != nil {
		t.Errorf("softmax cost: %v", err)
	}
	if _, err := s.Cost(d, tensor.NHWC, CostOptions{}); err == nil {
		t.Error("unsupported layout must be rejected")
	}

	in := tensor.Random(s.InputShape(), tensor.NCHW, 5)
	out, err := Forward(s, in, kernels.ConvAlgDirect)
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
	if _, err := Forward(s, wrong, kernels.ConvAlgDirect); err == nil {
		t.Error("wrong input shape must be rejected")
	}
}

func TestFullyConnectedLayer(t *testing.T) {
	d := gpusim.TitanBlack()
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
	cost, err := fc.Cost(d, tensor.NCHW, CostOptions{})
	if err != nil || len(cost) != 1 {
		t.Fatalf("fc cost: %v", err)
	}
	if cost[0].FLOPs != 2*3*4*6 {
		t.Errorf("fc FLOPs = %v", cost[0].FLOPs)
	}
	if _, err := fc.Cost(d, tensor.NHWC, CostOptions{}); err == nil {
		t.Error("unsupported layout must be rejected")
	}

	// Functional check against a hand-computed case: weights from the
	// deterministic generator, identity-like input.
	in := tensor.Random(tensor.Shape{N: 4, C: 6, H: 1, W: 1}, tensor.NCHW, 9)
	out, err := Forward(fc, in, kernels.ConvAlgDirect)
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
	if _, err := Forward(fc, conv4d, kernels.ConvAlgDirect); err != nil {
		t.Errorf("4-D input with matching element count must be accepted: %v", err)
	}
	wrong := tensor.Random(tensor.Shape{N: 4, C: 7, H: 1, W: 1}, tensor.NCHW, 3)
	if _, err := Forward(fc, wrong, kernels.ConvAlgDirect); err == nil {
		t.Error("mismatched input must be rejected")
	}
}

func TestReLULayer(t *testing.T) {
	d := gpusim.TitanBlack()
	shape := tensor.Shape{N: 2, C: 3, H: 4, W: 4}
	r, err := NewReLU("relu1", shape)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewReLU("bad", tensor.Shape{}); err == nil {
		t.Error("invalid shape must be rejected")
	}
	cost, err := r.Cost(d, tensor.CHWN, CostOptions{})
	if err != nil || len(cost) != 1 {
		t.Fatalf("relu cost: %v", err)
	}
	if cost[0].DRAMReadBytes != float64(shape.Bytes()) {
		t.Error("relu should read the tensor once")
	}
	in := tensor.Random(shape, tensor.NCHW, 1)
	out, err := Forward(r, in, kernels.ConvAlgDirect)
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
	if _, err := Forward(r, tensor.New(tensor.Shape{N: 1, C: 1, H: 1, W: 1}, tensor.NCHW), kernels.ConvAlgDirect); err == nil {
		t.Error("wrong shape must be rejected")
	}
	if !r.SupportsLayout(tensor.NHWC) {
		t.Error("relu is layout agnostic")
	}
}

func TestLRNLayer(t *testing.T) {
	d := gpusim.TitanBlack()
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
	if _, err := l.Cost(d, tensor.NCHW, CostOptions{}); err != nil {
		t.Errorf("lrn cost: %v", err)
	}
	in := tensor.Random(shape, tensor.NCHW, 11)
	out, err := Forward(l, in, kernels.ConvAlgDirect)
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
	if _, err := Forward(l, tensor.New(tensor.Shape{N: 1, C: 1, H: 1, W: 1}, tensor.NCHW), kernels.ConvAlgDirect); err == nil {
		t.Error("wrong shape must be rejected")
	}
}

func TestImplStrings(t *testing.T) {
	for _, impl := range []ConvImpl{ConvAuto, ConvDirectImpl, ConvGemmImpl, ConvFFTImpl, ConvFFTTilingImpl, ConvBestNCHW, ConvImpl(42)} {
		if impl.String() == "" {
			t.Error("ConvImpl.String must not be empty")
		}
	}
	for _, impl := range []PoolImpl{PoolPlain, PoolOptimized, PoolCuDNNVariant, PoolImpl(42)} {
		if impl.String() == "" {
			t.Error("PoolImpl.String must not be empty")
		}
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
