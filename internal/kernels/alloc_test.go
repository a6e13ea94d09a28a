package kernels

import (
	"fmt"

	"memcnn/internal/tensor"
)

// The allocating forms of the kernels.  Every program runs the *Into forms
// over planned buffers; these wrappers allocate the destination (and the
// workspace, and pack the filters) and delegate to them, so the tests that
// call them check the kernels that run.

// ConvDirect is ConvDirectInto into a fresh tensor in outLayout.
func ConvDirect(in, filters *tensor.Tensor, cfg ConvConfig, outLayout tensor.Layout) (*tensor.Tensor, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	out := tensor.New(cfg.OutputShape(), outLayout)
	if err := ConvDirectInto(in, filters, out, cfg); err != nil {
		return nil, err
	}
	return out, nil
}

// ConvIm2colGemm packs the filters, allocates the workspace and the output
// and delegates to ConvIm2colGemmInto, so its output is bit-identical to the
// planned runtime's GEMM path.
func ConvIm2colGemm(in, filters *tensor.Tensor, cfg ConvConfig, outLayout tensor.Layout) (*tensor.Tensor, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if in.Shape != cfg.InputShape() {
		return nil, fmt.Errorf("kernels: conv input shape %v does not match config %v", in.Shape, cfg.InputShape())
	}
	packed, err := PackConvFilters(filters, cfg)
	if err != nil {
		return nil, err
	}
	out := tensor.New(cfg.OutputShape(), outLayout)
	scratch := make([]float32, ConvGemmWorkspaceElems(cfg, outLayout))
	if err := ConvIm2colGemmInto(in, packed, out, cfg, scratch); err != nil {
		return nil, err
	}
	return out, nil
}

// ConvFFT allocates the output and workspace and delegates to ConvFFTInto, so
// its results are bit-identical to the planned runtime's FFT path.
func ConvFFT(in, filters *tensor.Tensor, cfg ConvConfig, outLayout tensor.Layout) (*tensor.Tensor, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	out := tensor.New(cfg.OutputShape(), outLayout)
	scratch := make([]float32, ConvFFTWorkspaceElems(cfg))
	if err := ConvFFTInto(in, filters, out, cfg, scratch); err != nil {
		return nil, err
	}
	return out, nil
}

// Gemm is GemmInto into a fresh m×n slice.
func Gemm(a []float32, b []float32, m, n, k int) ([]float32, error) {
	if err := gemmCheck(a, b, m, n, k); err != nil {
		return nil, err
	}
	c := make([]float32, m*n)
	if err := GemmInto(a, b, c, m, n, k); err != nil {
		return nil, err
	}
	return c, nil
}

// ConvBackwardData is ConvGemmBackwardDataInto over a fresh workspace, into
// a fresh tensor in outLayout.
func ConvBackwardData(dOut, filters *tensor.Tensor, cfg ConvConfig, outLayout tensor.Layout) (*tensor.Tensor, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dIn := tensor.New(cfg.InputShape(), outLayout)
	if err := ConvGemmBackwardDataInto(dOut, filters, dIn, cfg, make([]float32, ConvGemmBackwardDataWorkspaceElems(cfg))); err != nil {
		return nil, err
	}
	return dIn, nil
}

// ConvBackwardFilter is ConvGemmBackwardFilterInto over a fresh workspace,
// into a fresh NCHW tensor.
func ConvBackwardFilter(in, dOut *tensor.Tensor, cfg ConvConfig) (*tensor.Tensor, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dW := tensor.New(cfg.FilterShape(), tensor.NCHW)
	if err := ConvGemmBackwardFilterInto(in, dOut, dW, cfg, make([]float32, ConvGemmBackwardFilterWorkspaceElems(cfg))); err != nil {
		return nil, err
	}
	return dW, nil
}

// PoolBackward is PoolBackwardInto into a fresh tensor in the input's layout.
func PoolBackward(in, dOut *tensor.Tensor, cfg PoolConfig) (*tensor.Tensor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dIn := tensor.New(cfg.InputShape(), in.Layout)
	if err := PoolBackwardInto(in, dOut, dIn, cfg); err != nil {
		return nil, err
	}
	return dIn, nil
}

// ReLUBackward is ReLUBackwardInto into a fresh tensor in dOut's layout.
func ReLUBackward(in, dOut *tensor.Tensor) (*tensor.Tensor, error) {
	dIn := tensor.New(in.Shape, dOut.Layout)
	if err := ReLUBackwardInto(in, dOut, dIn); err != nil {
		return nil, err
	}
	return dIn, nil
}

// SoftmaxCrossEntropyBackward computes the gradient of the softmax +
// cross-entropy loss with respect to the logits: probs - onehot(labels),
// scaled by 1/N.  probs is the row-major N×Classes output of Softmax.
func SoftmaxCrossEntropyBackward(probs []float32, labels []int, cfg SoftmaxConfig) ([]float32, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	flabels := make([]float32, len(labels))
	for i, l := range labels {
		flabels[i] = float32(l)
	}
	grad := make([]float32, cfg.Elems())
	if err := SoftmaxCrossEntropyBackwardFloatInto(grad, probs, flabels, cfg); err != nil {
		return nil, err
	}
	return grad, nil
}

// SoftmaxCrossEntropyBackwardInto is the integer-label loop that
// SoftmaxCrossEntropyBackwardFloatInto must match bit for bit.
func SoftmaxCrossEntropyBackwardInto(grad, probs []float32, labels []int, cfg SoftmaxConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if len(probs) < cfg.Elems() {
		return fmt.Errorf("kernels: softmax backward probs has %d elements, want %d", len(probs), cfg.Elems())
	}
	if len(grad) < cfg.Elems() {
		return fmt.Errorf("kernels: softmax backward grad has %d elements, want %d", len(grad), cfg.Elems())
	}
	if len(labels) != cfg.N {
		return fmt.Errorf("kernels: softmax backward has %d labels, want %d", len(labels), cfg.N)
	}
	scale := 1 / float32(cfg.N)
	for n := 0; n < cfg.N; n++ {
		lbl := labels[n]
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

// Pool is PoolInto into a fresh tensor in the input's layout.
func Pool(in *tensor.Tensor, cfg PoolConfig) (*tensor.Tensor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	out := tensor.New(cfg.OutputShape(), in.Layout)
	if err := PoolInto(in, out, cfg); err != nil {
		return nil, err
	}
	return out, nil
}
