package kernels

import (
	"testing"

	"memcnn/internal/tensor"
)

// SmallConvCases is the set of layer shapes used for cross-implementation
// agreement tests (and, exported to model_test.go, the cost-model validity
// check).  They exercise square and rectangular inputs, strides, padding,
// single channels and single filters.
var SmallConvCases = []ConvConfig{
	{N: 2, C: 1, H: 8, W: 8, K: 3, FH: 3, FW: 3},
	{N: 3, C: 4, H: 10, W: 10, K: 5, FH: 5, FW: 5},
	{N: 2, C: 3, H: 12, W: 12, K: 4, FH: 3, FW: 3, StrideH: 2, StrideW: 2},
	{N: 1, C: 2, H: 9, W: 7, K: 2, FH: 3, FW: 3},
	{N: 2, C: 2, H: 8, W: 8, K: 2, FH: 1, FW: 1},
	{N: 2, C: 3, H: 8, W: 8, K: 4, FH: 3, FW: 3, PadH: 1, PadW: 1},
	{N: 4, C: 2, H: 6, W: 6, K: 3, FH: 3, FW: 3, StrideH: 3, StrideW: 3},
	// Filters wider than the unpadded input with stride > 1: some taps have
	// no valid column at all (regression for the im2col fast-path bounds).
	{N: 1, C: 1, H: 5, W: 5, K: 1, FH: 9, FW: 9, PadH: 3, PadW: 3, StrideH: 2, StrideW: 2},
	{N: 2, C: 2, H: 5, W: 5, K: 2, FH: 13, FW: 13, PadH: 4, PadW: 4, StrideH: 2, StrideW: 2},
}

func TestConvDirectHandComputed(t *testing.T) {
	// 1 image, 1 channel, 3x3 input, 2x2 filter of ones: each output is the
	// sum of a 2x2 window.
	cfg := ConvConfig{N: 1, C: 1, H: 3, W: 3, K: 1, FH: 2, FW: 2}
	in := tensor.New(cfg.InputShape(), tensor.NCHW)
	vals := []float32{1, 2, 3, 4, 5, 6, 7, 8, 9}
	copy(in.Data, vals)
	filters := tensor.New(cfg.FilterShape(), tensor.NCHW)
	filters.Fill(1)
	out, err := ConvDirect(in, filters, cfg, tensor.NCHW)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{1 + 2 + 4 + 5, 2 + 3 + 5 + 6, 4 + 5 + 7 + 8, 5 + 6 + 8 + 9}
	for i, w := range want {
		if out.Data[i] != w {
			t.Errorf("out[%d] = %v, want %v", i, out.Data[i], w)
		}
	}
}

func TestConvImplementationsAgree(t *testing.T) {
	for _, cfg := range SmallConvCases {
		in := tensor.Random(cfg.InputShape(), tensor.CHWN, 1)
		filters := tensor.Filters(cfg.K, cfg.C, cfg.FH, cfg.FW, 2)

		direct, err := ConvDirect(in, filters, cfg, tensor.NCHW)
		if err != nil {
			t.Fatalf("%v: direct: %v", cfg, err)
		}
		gemm, err := ConvIm2colGemm(tensor.Convert(in, tensor.NCHW), filters, cfg, tensor.CHWN)
		if err != nil {
			t.Fatalf("%v: gemm: %v", cfg, err)
		}
		if !tensor.RelClose(direct, gemm, 1e-4, 1e-4) {
			t.Errorf("%v: GEMM convolution disagrees with direct convolution", cfg)
		}
		fftOut, err := ConvFFT(in, filters, cfg, tensor.NCHW)
		if err != nil {
			t.Fatalf("%v: fft: %v", cfg, err)
		}
		if !tensor.RelClose(direct, fftOut, 1e-3, 1e-3) {
			t.Errorf("%v: FFT convolution disagrees with direct convolution", cfg)
		}
	}
}

func TestConvFFTWithPadding(t *testing.T) {
	cfg := ConvConfig{N: 2, C: 3, H: 8, W: 8, K: 4, FH: 3, FW: 3, PadH: 1, PadW: 1}
	in := tensor.Random(cfg.InputShape(), tensor.NCHW, 5)
	filters := tensor.Filters(cfg.K, cfg.C, cfg.FH, cfg.FW, 6)
	direct, err := ConvDirect(in, filters, cfg, tensor.NCHW)
	if err != nil {
		t.Fatal(err)
	}
	fftOut, err := ConvFFT(in, filters, cfg, tensor.NCHW)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.RelClose(direct, fftOut, 1e-3, 1e-3) {
		t.Error("padded FFT convolution disagrees with direct convolution")
	}
}

func TestConvLayoutInvariance(t *testing.T) {
	// The same logical input in different layouts must give the same output.
	cfg := ConvConfig{N: 3, C: 2, H: 7, W: 7, K: 4, FH: 3, FW: 3}
	filters := tensor.Filters(cfg.K, cfg.C, cfg.FH, cfg.FW, 3)
	var ref *tensor.Tensor
	for _, l := range tensor.Layouts {
		in := tensor.Random(cfg.InputShape(), l, 9)
		out, err := ConvDirect(in, filters, cfg, tensor.NCHW)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = out
			continue
		}
		if !tensor.AllClose(ref, out, 1e-5) {
			t.Errorf("layout %v changed the convolution result", l)
		}
	}
}

func TestConvInputValidation(t *testing.T) {
	cfg := ConvConfig{N: 2, C: 2, H: 6, W: 6, K: 2, FH: 3, FW: 3}
	good := tensor.Random(cfg.InputShape(), tensor.NCHW, 1)
	badIn := tensor.Random(tensor.Shape{N: 2, C: 2, H: 5, W: 6}, tensor.NCHW, 1)
	filters := tensor.Filters(cfg.K, cfg.C, cfg.FH, cfg.FW, 1)
	badFilters := tensor.Filters(cfg.K, cfg.C+1, cfg.FH, cfg.FW, 1)

	if _, err := ConvDirect(badIn, filters, cfg, tensor.NCHW); err == nil {
		t.Error("mismatched input accepted by ConvDirect")
	}
	if _, err := ConvDirect(good, badFilters, cfg, tensor.NCHW); err == nil {
		t.Error("mismatched filters accepted by ConvDirect")
	}
	if _, err := ConvIm2colGemm(badIn, filters, cfg, tensor.NCHW); err == nil {
		t.Error("mismatched input accepted by ConvIm2colGemm")
	}
	if _, err := ConvFFT(good, badFilters, cfg, tensor.NCHW); err == nil {
		t.Error("mismatched filters accepted by ConvFFT")
	}
	badCfg := cfg
	badCfg.K = 0
	if _, err := ConvDirect(good, filters, badCfg, tensor.NCHW); err == nil {
		t.Error("invalid config accepted")
	}
}

func BenchmarkConvDirectSmall(b *testing.B) {
	cfg := ConvConfig{N: 8, C: 16, H: 14, W: 14, K: 16, FH: 5, FW: 5}
	in := tensor.Random(cfg.InputShape(), tensor.CHWN, 1)
	filters := tensor.Filters(cfg.K, cfg.C, cfg.FH, cfg.FW, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ConvDirect(in, filters, cfg, tensor.CHWN); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConvGemmSmall(b *testing.B) {
	cfg := ConvConfig{N: 8, C: 16, H: 14, W: 14, K: 16, FH: 5, FW: 5}
	in := tensor.Random(cfg.InputShape(), tensor.NCHW, 1)
	filters := tensor.Filters(cfg.K, cfg.C, cfg.FH, cfg.FW, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ConvIm2colGemm(in, filters, cfg, tensor.NCHW); err != nil {
			b.Fatal(err)
		}
	}
}
