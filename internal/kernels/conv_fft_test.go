package kernels

import (
	"runtime"
	"testing"

	"memcnn/internal/tensor"
)

// TestConvFFTIntoValidation checks the planned entry point's input contract:
// mismatched operands, a short scratch slice and an invalid config must all be
// rejected before any plane is touched.
func TestConvFFTIntoValidation(t *testing.T) {
	cfg := ConvConfig{N: 2, C: 2, H: 6, W: 6, K: 2, FH: 3, FW: 3, PadH: 1, PadW: 1}
	in := tensor.Random(cfg.InputShape(), tensor.NCHW, 1)
	filters := tensor.Filters(cfg.K, cfg.C, cfg.FH, cfg.FW, 1)
	out := tensor.New(cfg.OutputShape(), tensor.NCHW)
	scratch := make([]float32, ConvFFTWorkspaceElems(cfg))

	if err := ConvFFTInto(in, filters, out, cfg, scratch); err != nil {
		t.Fatalf("well-formed call rejected: %v", err)
	}
	badIn := tensor.Random(tensor.Shape{N: 2, C: 2, H: 5, W: 6}, tensor.NCHW, 1)
	if err := ConvFFTInto(badIn, filters, out, cfg, scratch); err == nil {
		t.Error("mismatched input accepted")
	}
	badFilters := tensor.Filters(cfg.K, cfg.C+1, cfg.FH, cfg.FW, 1)
	if err := ConvFFTInto(in, badFilters, out, cfg, scratch); err == nil {
		t.Error("mismatched filters accepted")
	}
	badOut := tensor.New(tensor.Shape{N: 2, C: 3, H: 6, W: 6}, tensor.NCHW)
	if err := ConvFFTInto(in, filters, badOut, cfg, scratch); err == nil {
		t.Error("mismatched output accepted")
	}
	if err := ConvFFTInto(in, filters, out, cfg, scratch[:len(scratch)-1]); err == nil {
		t.Error("short scratch accepted")
	}
	badCfg := cfg
	badCfg.K = 0
	if err := ConvFFTInto(in, filters, out, badCfg, scratch); err == nil {
		t.Error("invalid config accepted")
	}
}

// TestConvFFTLayoutBitInvariance pins the determinism contract the golden
// suite rests on: the FFT kernel reads its input through strides and
// accumulates channels in ascending order inside the spectral planes, so the
// same logical convolution produces bit-identical results in every
// input/output layout combination.
func TestConvFFTLayoutBitInvariance(t *testing.T) {
	cfg := ConvConfig{N: 3, C: 4, H: 9, W: 7, K: 5, FH: 3, FW: 3, PadH: 1, PadW: 1}
	filters := tensor.Filters(cfg.K, cfg.C, cfg.FH, cfg.FW, 8)
	base := tensor.Random(cfg.InputShape(), tensor.NCHW, 4)
	scratch := make([]float32, ConvFFTWorkspaceElems(cfg))

	var ref *tensor.Tensor
	for _, inLay := range tensor.Layouts {
		in := tensor.Convert(base, inLay)
		for _, outLay := range tensor.Layouts {
			out := tensor.New(cfg.OutputShape(), outLay)
			if err := ConvFFTInto(in, filters, out, cfg, scratch); err != nil {
				t.Fatalf("in %v out %v: %v", inLay, outLay, err)
			}
			canon := tensor.Convert(out, tensor.NCHW)
			if ref == nil {
				ref = canon
				continue
			}
			for i := range ref.Data {
				if canon.Data[i] != ref.Data[i] {
					t.Fatalf("in %v out %v: element %d differs: %v vs %v",
						inLay, outLay, i, canon.Data[i], ref.Data[i])
				}
			}
		}
	}
}

// TestConvFFTDeterministicAcrossWorkers checks that the parallel fan-out over
// filter blocks and image lanes reproduces the serial path bit for bit — each
// (image, filter) accumulation is computed whole by one worker, so the
// partition cannot change the arithmetic.  Batch 3 leaves lanes idle or
// uneven; batch 11 is past fftMaxWorkers and a multiple of no lane count, so
// the lanes' last rounds are ragged.
func TestConvFFTDeterministicAcrossWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, n := range []int{3, 11} {
		cfg := ConvConfig{N: n, C: 5, H: 13, W: 11, K: 7, FH: 3, FW: 3, PadH: 1, PadW: 1, StrideH: 2, StrideW: 2}
		in := tensor.Random(cfg.InputShape(), tensor.CHWN, 5)
		filters := tensor.Filters(cfg.K, cfg.C, cfg.FH, cfg.FW, 6)

		runtime.GOMAXPROCS(1)
		serial, err := ConvFFT(in, filters, cfg, tensor.NCHW)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{2, 3, 4, 8} {
			runtime.GOMAXPROCS(procs)
			parallel, err := ConvFFT(in, filters, cfg, tensor.NCHW)
			if err != nil {
				t.Fatal(err)
			}
			for i := range parallel.Data {
				if parallel.Data[i] != serial.Data[i] {
					t.Fatalf("batch %d, %d workers: element %d differs from the serial run: %v vs %v", n, procs, i, parallel.Data[i], serial.Data[i])
				}
			}
		}
	}
}

// TestConvFFTWorkspaceElemsScaling checks the scratch sizing formula: the
// filter spectra grow with K*C while the per-worker image blocks saturate at
// the worker cap, so a batch-32 workspace must not be 32 times the batch-1
// one.
func TestConvFFTWorkspaceElemsScaling(t *testing.T) {
	cfg := ConvConfig{N: 1, C: 4, H: 16, W: 16, K: 8, FH: 5, FW: 5, PadH: 2, PadW: 2}
	one := ConvFFTWorkspaceElems(cfg)
	if one <= 0 {
		t.Fatalf("workspace for %v is %d, want positive", cfg, one)
	}
	big := cfg
	big.N = 32
	if got := ConvFFTWorkspaceElems(big); got >= one*8 {
		t.Errorf("batch-32 workspace %d not bounded by the worker cap (batch-1 is %d)", got, one)
	}
	if ConvFFTWorkspaceElems(ConvConfig{}) != 0 {
		t.Error("invalid config should size a zero workspace")
	}
}
