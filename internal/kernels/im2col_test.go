package kernels

import (
	"fmt"
	"testing"

	"memcnn/internal/tensor"
)

// Im2col is the reference unroll the packed production one (convGemmJob's
// im2col) is checked against: the whole batch as a plain row-major matrix
// with
//
//	rows = C*FH*FW            (the reduction dimension K of the GEMM)
//	cols = N*OutH*OutW        (one column per output pixel of the batch)
//
// Out-of-range taps (from padding) contribute zeros.
func Im2col(in *tensor.Tensor, cfg ConvConfig) ([]float32, error) {
	cfg = cfg.WithDefaults()
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
// the reference for every small case and layout pair, panel by panel as the
// lanes cut the batch: column i of a panel must hold the reference column of
// its (image, output position) — the images fastest where the output's batch
// stride is 1 and there are several, the positions fastest otherwise — in the
// GEMM core's panel format, in a poisoned, NaN-fenced destination of exactly
// rows·w floats.
func TestIm2colImagePacksTheReferenceMatrix(t *testing.T) {
	for _, cfg := range SmallConvCases {
		cfg = cfg.WithDefaults()
		rows, ohw := cfg.ReductionLength(), cfg.OutH()*cfg.OutW()
		for _, inLay := range tensor.Layouts {
			in := tensor.Random(cfg.InputShape(), inLay, 5)
			want, err := Im2col(in, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, outLay := range tensor.Layouts {
				out := tensor.New(cfg.OutputShape(), outLay)
				sn, _, _, _ := out.Shape.Strides(outLay)
				j := newConvGemmJob(in, nil, out, cfg, make([]float32, ConvGemmWorkspaceElems(cfg, outLay)))
				var runs [gemmNR]colRun
				for col := 0; col < j.cols; col += j.pw {
					w := min(j.pw, j.cols-col)
					got, backing := guarded(nil, rows*w)
					poison(got)
					j.im2col(got, runs[:j.cutRuns(runs[:], col, w)], w)
					if !fenceIntact(backing, rows*w) {
						t.Fatalf("%v %v->%v columns %d+%d: wrote outside the panel", cfg, inLay, outLay, col, w)
					}
					for i := 0; i < w; i++ {
						n, pos := (col+i)/ohw, (col+i)%ohw
						if sn == 1 && cfg.N > 1 {
							n, pos = (col+i)%cfg.N, (col+i)/cfg.N
						}
						for row := 0; row < rows; row++ {
							if g, ref := got[row*w+i], want[row*cfg.N*ohw+n*ohw+pos]; g != ref {
								t.Fatalf("%v %v->%v: unroll(%d, image %d position %d) = %v, want %v", cfg, inLay, outLay, row, n, pos, g, ref)
							}
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
