package kernels

import (
	"fmt"
	"testing"

	"memcnn/internal/gpusim"
	"memcnn/internal/tensor"
)

// Im2col is the reference unroll the packed production ones (im2colPanel and
// im2colBatchPanel) are checked against: the whole batch as a plain row-major
// matrix with
//
//	rows = C*FH*FW            (the reduction dimension K of the GEMM)
//	cols = N*OutH*OutW        (one column per output pixel of the batch)
//
// Out-of-range taps (from padding) contribute zeros.
func Im2col(in *tensor.Tensor, cfg ConvConfig) ([]float32, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if in.Shape != cfg.InputShape() {
		return nil, fmt.Errorf("kernels: im2col input shape %v does not match config %v", in.Shape, cfg.InputShape())
	}
	outH, outW := cfg.OutH(), cfg.OutW()
	cols := cfg.N * outH * outW
	out := make([]float32, cfg.C*cfg.FH*cfg.FW*cols)
	for row := 0; row < cfg.C*cfg.FH*cfg.FW; row++ {
		c, fh, fw := row/(cfg.FH*cfg.FW), row/cfg.FW%cfg.FH, row%cfg.FW
		dst := out[row*cols : (row+1)*cols]
		for col := range dst {
			n, oh, ow := col/(outH*outW), col/outW%outH, col%outW
			ih, iw := oh*cfg.StrideH-cfg.PadH+fh, ow*cfg.StrideW-cfg.PadW+fw
			if ih >= 0 && ih < cfg.H && iw >= 0 && iw < cfg.W {
				dst[col] = in.At(n, c, ih, iw)
			}
		}
	}
	return out, nil
}

// TestIm2colImagePacksTheReferenceMatrix checks the production unroll against
// the reference for every small case, image and layout: element (row, col) of
// the matrix must sit where the GEMM core's panel format puts it, in a
// poisoned, NaN-fenced destination of exactly rows·cols floats.
func TestIm2colImagePacksTheReferenceMatrix(t *testing.T) {
	for _, cfg := range smallConvCases {
		cfg = cfg.withDefaults()
		rows, ohw := cfg.ReductionLength(), cfg.OutH()*cfg.OutW()
		for _, lay := range tensor.Layouts {
			in := tensor.Random(cfg.InputShape(), lay, 5)
			want, err := Im2col(in, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for n := 0; n < cfg.N; n++ {
				got, backing := guarded(nil, rows*ohw)
				poison(got)
				job := convGemmJob{cfg: cfg, in: stridesOf(in), unroll: got, kdim: rows, outW: cfg.OutW(), ohw: ohw}
				for p := 0; p < ceilDiv(ohw, gemmNR); p++ {
					im2colPanel(&job, n, p)
				}
				if !fenceIntact(backing, rows*ohw) {
					t.Fatalf("%v %v image %d: wrote outside the unroll matrix", cfg, lay, n)
				}
				for row := 0; row < rows; row++ {
					for col := 0; col < ohw; col++ {
						panel := col / gemmNR * gemmNR
						w := min(gemmNR, ohw-panel)
						g := got[panel*rows+row*w+col-panel]
						if ref := want[row*cfg.N*ohw+n*ohw+col]; g != ref {
							t.Fatalf("%v %v image %d: unroll(%d,%d) = %v, want %v", cfg, lay, n, row, col, g, ref)
						}
					}
				}
			}
		}
	}
}

func TestIm2colSmallExample(t *testing.T) {
	// 1 image, 1 channel, 3x3 input, 2x2 filter, stride 1: the unrolled
	// matrix has 4 rows (filter taps) and 4 columns (output pixels).
	cfg := ConvConfig{N: 1, C: 1, H: 3, W: 3, K: 1, FH: 2, FW: 2}
	in := tensor.New(cfg.InputShape(), tensor.NCHW)
	copy(in.Data, []float32{1, 2, 3, 4, 5, 6, 7, 8, 9})
	got, err := Im2col(in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Row r corresponds to filter tap (fh, fw); column c to output (oh, ow).
	want := []float32{
		1, 2, 4, 5, // tap (0,0)
		2, 3, 5, 6, // tap (0,1)
		4, 5, 7, 8, // tap (1,0)
		5, 6, 8, 9, // tap (1,1)
	}
	if len(got) != len(want) {
		t.Fatalf("length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("unrolled[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestIm2colPaddingProducesZeros(t *testing.T) {
	cfg := ConvConfig{N: 1, C: 1, H: 2, W: 2, K: 1, FH: 3, FW: 3, PadH: 1, PadW: 1}
	in := tensor.New(cfg.InputShape(), tensor.NCHW)
	in.Fill(1)
	got, err := Im2col(in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Corners of the padded image are zero; make sure zeros appear and the
	// total count of ones equals input elements * how often each is used.
	var ones, zeros int
	for _, v := range got {
		switch v {
		case 1:
			ones++
		case 0:
			zeros++
		default:
			t.Fatalf("unexpected value %v", v)
		}
	}
	if zeros == 0 {
		t.Error("padding must contribute zeros")
	}
	if ones+zeros != len(got) {
		t.Error("unexpected values in unrolled matrix")
	}
}

func TestIm2colShapeMismatch(t *testing.T) {
	cfg := ConvConfig{N: 2, C: 2, H: 4, W: 4, K: 1, FH: 3, FW: 3}
	in := tensor.New(tensor.Shape{N: 2, C: 2, H: 5, W: 4}, tensor.NCHW)
	if _, err := Im2col(in, cfg); err == nil {
		t.Error("shape mismatch must be rejected")
	}
	if _, err := Im2col(tensor.New(cfg.InputShape(), tensor.NCHW), ConvConfig{}); err == nil {
		t.Error("invalid config must be rejected")
	}
}

func TestIm2colCostScalesWithFilterArea(t *testing.T) {
	d := gpusim.TitanBlack()
	small := Im2colCost(d, ConvConfig{N: 32, C: 64, H: 28, W: 28, K: 64, FH: 1, FW: 1})
	large := Im2colCost(d, ConvConfig{N: 32, C: 64, H: 28, W: 28, K: 64, FH: 5, FW: 5})
	if large.DRAMWriteBytes <= small.DRAMWriteBytes {
		t.Error("a 5x5 unroll writes far more than a 1x1 unroll")
	}
	if err := small.Validate(); err != nil {
		t.Error(err)
	}
	if err := large.Validate(); err != nil {
		t.Error(err)
	}
}
