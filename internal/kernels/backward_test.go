package kernels

import (
	"fmt"
	"math"
	"testing"

	"memcnn/internal/tensor"
)

// numericalGradInput estimates d(sum(out*weights))/d(in[n,c,h,w]) by central
// differences through the forward convolution; used to validate the backward
// kernels on tiny configurations.
func numericalGradInput(t *testing.T, in, filters, upstream *tensor.Tensor, cfg ConvConfig, n, c, h, w int) float64 {
	t.Helper()
	const eps = 1e-2
	eval := func(delta float32) float64 {
		perturbed := in.Clone()
		perturbed.Set(n, c, h, w, perturbed.At(n, c, h, w)+delta)
		out, err := ConvDirect(perturbed, filters, cfg, tensor.NCHW)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		s := out.Shape
		for nn := 0; nn < s.N; nn++ {
			for kk := 0; kk < s.C; kk++ {
				for oh := 0; oh < s.H; oh++ {
					for ow := 0; ow < s.W; ow++ {
						sum += float64(out.At(nn, kk, oh, ow)) * float64(upstream.At(nn, kk, oh, ow))
					}
				}
			}
		}
		return sum
	}
	return (eval(eps) - eval(-eps)) / (2 * eps)
}

func TestConvBackwardDataMatchesNumericalGradient(t *testing.T) {
	cfgs := []ConvConfig{
		{N: 2, C: 2, H: 6, W: 6, K: 3, FH: 3, FW: 3},
		{N: 1, C: 1, H: 6, W: 6, K: 2, FH: 3, FW: 3, StrideH: 2, StrideW: 2},
		{N: 2, C: 2, H: 5, W: 5, K: 2, FH: 3, FW: 3, PadH: 1, PadW: 1},
	}
	for _, cfg := range cfgs {
		in := tensor.Random(cfg.InputShape(), tensor.CHWN, 1)
		filters := tensor.Filters(cfg.K, cfg.C, cfg.FH, cfg.FW, 2)
		upstream := tensor.Random(cfg.OutputShape(), tensor.NCHW, 3)

		dIn, err := ConvBackwardData(upstream, filters, cfg, tensor.NCHW)
		if err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		// Check a handful of positions against numerical differentiation.
		positions := [][4]int{{0, 0, 0, 0}, {0, 0, 2, 3}, {cfg.N - 1, cfg.C - 1, cfg.H - 1, cfg.W - 1}, {0, cfg.C - 1, 1, 1}}
		for _, p := range positions {
			want := numericalGradInput(t, in, filters, upstream, cfg, p[0], p[1], p[2], p[3])
			got := float64(dIn.At(p[0], p[1], p[2], p[3]))
			if math.Abs(got-want) > 1e-2*(1+math.Abs(want)) {
				t.Errorf("%v: dIn%v = %v, numerical %v", cfg, p, got, want)
			}
		}
	}
}

func TestConvBackwardFilterMatchesNumericalGradient(t *testing.T) {
	cfg := ConvConfig{N: 2, C: 2, H: 5, W: 5, K: 2, FH: 3, FW: 3}
	in := tensor.Random(cfg.InputShape(), tensor.NCHW, 4)
	filters := tensor.Filters(cfg.K, cfg.C, cfg.FH, cfg.FW, 5)
	upstream := tensor.Random(cfg.OutputShape(), tensor.NCHW, 6)

	dW, err := ConvBackwardFilter(in, upstream, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const eps = 1e-2
	evalWith := func(k, c, fh, fw int, delta float32) float64 {
		perturbed := filters.Clone()
		perturbed.Set(k, c, fh, fw, perturbed.At(k, c, fh, fw)+delta)
		out, err := ConvDirect(in, perturbed, cfg, tensor.NCHW)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		s := out.Shape
		for n := 0; n < s.N; n++ {
			for kk := 0; kk < s.C; kk++ {
				for oh := 0; oh < s.H; oh++ {
					for ow := 0; ow < s.W; ow++ {
						sum += float64(out.At(n, kk, oh, ow)) * float64(upstream.At(n, kk, oh, ow))
					}
				}
			}
		}
		return sum
	}
	for _, p := range [][4]int{{0, 0, 0, 0}, {1, 1, 2, 2}, {0, 1, 1, 0}} {
		want := (evalWith(p[0], p[1], p[2], p[3], eps) - evalWith(p[0], p[1], p[2], p[3], -eps)) / (2 * eps)
		got := float64(dW.At(p[0], p[1], p[2], p[3]))
		if math.Abs(got-want) > 1e-2*(1+math.Abs(want)) {
			t.Errorf("dW%v = %v, numerical %v", p, got, want)
		}
	}
}

func TestConvBackwardValidation(t *testing.T) {
	cfg := ConvConfig{N: 2, C: 2, H: 6, W: 6, K: 3, FH: 3, FW: 3}
	filters := tensor.Filters(cfg.K, cfg.C, cfg.FH, cfg.FW, 1)
	wrongGrad := tensor.New(tensor.Shape{N: 2, C: 3, H: 3, W: 3}, tensor.NCHW)
	if _, err := ConvBackwardData(wrongGrad, filters, cfg, tensor.NCHW); err == nil {
		t.Error("wrong gradient shape must be rejected")
	}
	wrongFilters := tensor.Filters(cfg.K, cfg.C+1, cfg.FH, cfg.FW, 1)
	goodGrad := tensor.New(cfg.OutputShape(), tensor.NCHW)
	if _, err := ConvBackwardData(goodGrad, wrongFilters, cfg, tensor.NCHW); err == nil {
		t.Error("wrong filter shape must be rejected")
	}
	wrongIn := tensor.New(tensor.Shape{N: 2, C: 2, H: 7, W: 6}, tensor.NCHW)
	if _, err := ConvBackwardFilter(wrongIn, goodGrad, cfg); err == nil {
		t.Error("wrong input shape must be rejected")
	}
	if _, err := ConvBackwardFilter(tensor.New(cfg.InputShape(), tensor.NCHW), wrongGrad, cfg); err == nil {
		t.Error("wrong gradient shape must be rejected by the filter gradient")
	}
	if _, err := ConvBackwardData(goodGrad, filters, ConvConfig{}, tensor.NCHW); err == nil {
		t.Error("invalid config must be rejected")
	}
}

func TestPoolBackwardMaxRoutesToArgmax(t *testing.T) {
	cfg := PoolConfig{N: 1, C: 1, H: 4, W: 4, Window: 2, Stride: 2}
	in := tensor.New(cfg.InputShape(), tensor.NCHW)
	copy(in.Data, []float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	})
	dOut := tensor.New(cfg.OutputShape(), tensor.NCHW)
	copy(dOut.Data, []float32{10, 20, 30, 40})
	dIn, err := PoolBackward(in, dOut, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The maxima are at positions (1,1), (1,3), (3,1), (3,3).
	want := map[[2]int]float32{{1, 1}: 10, {1, 3}: 20, {3, 1}: 30, {3, 3}: 40}
	for h := 0; h < 4; h++ {
		for w := 0; w < 4; w++ {
			exp := want[[2]int{h, w}]
			if got := dIn.At(0, 0, h, w); got != exp {
				t.Errorf("dIn[%d][%d] = %v, want %v", h, w, got, exp)
			}
		}
	}
}

func TestPoolBackwardOverlappedAccumulates(t *testing.T) {
	cfg := PoolConfig{N: 1, C: 1, H: 5, W: 5, Window: 3, Stride: 2}
	in := tensor.New(cfg.InputShape(), tensor.NCHW)
	// Make the centre element (2,2) the maximum of all four windows.
	in.Set(0, 0, 2, 2, 100)
	dOut := tensor.New(cfg.OutputShape(), tensor.NCHW)
	dOut.Fill(1)
	dIn, err := PoolBackward(in, dOut, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := dIn.At(0, 0, 2, 2); got != 4 {
		t.Errorf("shared maximum should accumulate all four gradients, got %v", got)
	}
}

func TestPoolBackwardValidation(t *testing.T) {
	cfg := PoolConfig{N: 1, C: 1, H: 4, W: 4, Window: 2, Stride: 2}
	in := tensor.New(cfg.InputShape(), tensor.NCHW)
	if _, err := PoolBackward(in, tensor.New(tensor.Shape{N: 1, C: 1, H: 3, W: 2}, tensor.NCHW), cfg); err == nil {
		t.Error("wrong gradient shape must be rejected")
	}
	if _, err := PoolBackward(tensor.New(tensor.Shape{N: 1, C: 1, H: 5, W: 4}, tensor.NCHW), tensor.New(cfg.OutputShape(), tensor.NCHW), cfg); err == nil {
		t.Error("wrong input shape must be rejected")
	}
	if _, err := PoolBackward(in, tensor.New(cfg.OutputShape(), tensor.NCHW), PoolConfig{}); err == nil {
		t.Error("invalid config must be rejected")
	}
}

func TestSoftmaxCrossEntropyBackward(t *testing.T) {
	cfg := SoftmaxConfig{N: 2, Classes: 3}
	logits := []float32{1, 2, 3, 0.5, 0.5, 0.5}
	probs, err := Softmax(logits, cfg)
	if err != nil {
		t.Fatal(err)
	}
	labels := []int{2, 0}
	grad, err := SoftmaxCrossEntropyBackward(probs, labels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Rows of the gradient sum to zero, the label entry is negative and the
	// rest are positive.
	for n := 0; n < cfg.N; n++ {
		var sum float64
		for c := 0; c < cfg.Classes; c++ {
			g := grad[n*cfg.Classes+c]
			sum += float64(g)
			if c == labels[n] && g >= 0 {
				t.Errorf("row %d: label gradient should be negative, got %v", n, g)
			}
			if c != labels[n] && g < 0 {
				t.Errorf("row %d: non-label gradient should be non-negative, got %v", n, g)
			}
		}
		if math.Abs(sum) > 1e-6 {
			t.Errorf("row %d gradient sums to %v, want 0", n, sum)
		}
	}
	// Validation.
	if _, err := SoftmaxCrossEntropyBackward(probs, []int{0}, cfg); err == nil {
		t.Error("wrong label count must be rejected")
	}
	if _, err := SoftmaxCrossEntropyBackward(probs, []int{0, 9}, cfg); err == nil {
		t.Error("out-of-range label must be rejected")
	}
	if _, err := SoftmaxCrossEntropyBackward(probs[:3], labels, cfg); err == nil {
		t.Error("wrong probs length must be rejected")
	}
	if _, err := SoftmaxCrossEntropyBackward(nil, nil, SoftmaxConfig{}); err == nil {
		t.Error("invalid config must be rejected")
	}
}

func TestReLUBackwardMasks(t *testing.T) {
	shape := tensor.Shape{N: 2, C: 3, H: 3, W: 4}
	in := tensor.Random(shape, tensor.NCHW, 9)
	dOut := tensor.Random(shape, tensor.NCHW, 10)
	dIn, err := ReLUBackward(in, dOut)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < shape.N; n++ {
		for c := 0; c < shape.C; c++ {
			for h := 0; h < shape.H; h++ {
				for w := 0; w < shape.W; w++ {
					want := float32(0)
					if in.At(n, c, h, w) > 0 {
						want = dOut.At(n, c, h, w)
					}
					if got := dIn.At(n, c, h, w); got != want {
						t.Fatalf("dIn(%d,%d,%d,%d) = %v, want %v", n, c, h, w, got, want)
					}
				}
			}
		}
	}
	// Mixed layouts walk the three tensors through their strides: every
	// combination must be bit-equal to the same-layout pass, a zero input
	// included (it masks like a negative one).
	in.Data[0] = 0
	want, err := ReLUBackward(in, dOut)
	if err != nil {
		t.Fatal(err)
	}
	for _, li := range tensor.Layouts {
		for _, lg := range tensor.Layouts {
			for _, ld := range tensor.Layouts {
				got := tensor.New(shape, ld)
				got.Fill(-1)
				if err := ReLUBackwardInto(tensor.Convert(in, li), tensor.Convert(dOut, lg), got); err != nil {
					t.Fatal(err)
				}
				sameBits(t, fmt.Sprintf("in %v, dOut %v, dIn %v", li, lg, ld), tensor.Convert(got, tensor.NCHW), want)
			}
		}
	}
	if _, err := ReLUBackward(in, tensor.New(tensor.Shape{N: 1, C: 1, H: 1, W: 1}, tensor.NCHW)); err == nil {
		t.Error("shape mismatch must be rejected")
	}
}
