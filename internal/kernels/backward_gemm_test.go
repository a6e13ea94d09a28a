package kernels

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"memcnn/internal/tensor"
)

// The direct gradients the GEMM ones are held to: serial At/Set loops, one
// float64 accumulator per element, taps in ascending order, out-of-range taps
// skipped, one rounding to float32.

func oracleConvBackwardData(dOut, filters, dIn *tensor.Tensor, cfg ConvConfig) {
	outH, outW := cfg.OutH(), cfg.OutW()
	for n := 0; n < cfg.N; n++ {
		for c := 0; c < cfg.C; c++ {
			for ih := 0; ih < cfg.H; ih++ {
				for iw := 0; iw < cfg.W; iw++ {
					var acc float64
					for k := 0; k < cfg.K; k++ {
						for fh := 0; fh < cfg.FH; fh++ {
							ohNum := ih + cfg.PadH - fh
							if ohNum < 0 || ohNum%cfg.StrideH != 0 {
								continue
							}
							oh := ohNum / cfg.StrideH
							if oh >= outH {
								continue
							}
							for fw := 0; fw < cfg.FW; fw++ {
								owNum := iw + cfg.PadW - fw
								if owNum < 0 || owNum%cfg.StrideW != 0 {
									continue
								}
								ow := owNum / cfg.StrideW
								if ow >= outW {
									continue
								}
								acc += float64(dOut.At(n, k, oh, ow)) * float64(filters.At(k, c, fh, fw))
							}
						}
					}
					dIn.Set(n, c, ih, iw, float32(acc))
				}
			}
		}
	}
}

func oracleConvBackwardFilter(in, dOut, dW *tensor.Tensor, cfg ConvConfig) {
	for k := 0; k < cfg.K; k++ {
		for c := 0; c < cfg.C; c++ {
			for fh := 0; fh < cfg.FH; fh++ {
				for fw := 0; fw < cfg.FW; fw++ {
					var acc float64
					for n := 0; n < cfg.N; n++ {
						for oh := 0; oh < cfg.OutH(); oh++ {
							ih := oh*cfg.StrideH - cfg.PadH + fh
							if ih < 0 || ih >= cfg.H {
								continue
							}
							for ow := 0; ow < cfg.OutW(); ow++ {
								iw := ow*cfg.StrideW - cfg.PadW + fw
								if iw < 0 || iw >= cfg.W {
									continue
								}
								acc += float64(dOut.At(n, k, oh, ow)) * float64(in.At(n, c, ih, iw))
							}
						}
					}
					dW.Set(k, c, fh, fw, float32(acc))
				}
			}
		}
	}
}

// gemmGradTol bounds the GEMM gradients' distance from the direct ones,
// relative to the largest magnitude of the direct result: the GEMM sums in
// float32 (up to N·OutH·OutW terms for the filter gradient), the oracles in
// float64.  The worst case below reads 1.5e-6, LeNet conv1's filter
// gradient (3136 terms an element); data gradients read about 2e-7.
const gemmGradTol = 1e-5

// gemmGradConfigs are the shapes the GEMM gradients are checked on: LeNet's
// and Cifar10's two convolutions at small batches, a padded shape with odd
// sizes everywhere (a ragged last slab, panel and position block), and a
// stride-2 pad-0 shape like ZFNet's conv2.
func gemmGradConfigs() map[string]ConvConfig {
	return map[string]ConvConfig{
		"lenet-conv1":   {N: 4, C: 1, H: 28, W: 28, K: 16, FH: 5, FW: 5, PadH: 2, PadW: 2},
		"lenet-conv2":   {N: 4, C: 16, H: 14, W: 14, K: 16, FH: 5, FW: 5, PadH: 2, PadW: 2},
		"cifar10-conv1": {N: 2, C: 3, H: 24, W: 24, K: 64, FH: 5, FW: 5, PadH: 2, PadW: 2},
		"cifar10-conv2": {N: 2, C: 64, H: 11, W: 11, K: 64, FH: 5, FW: 5, PadH: 2, PadW: 2},
		"padded-odd":    {N: 3, C: 5, H: 13, W: 11, K: 7, FH: 3, FW: 3, PadH: 1, PadW: 1},
		"stride2-pad0":  {N: 2, C: 3, H: 19, W: 17, K: 8, FH: 5, FW: 5, StrideH: 2, StrideW: 2},
	}
}

// closeTo fails the test when got is further than gemmGradTol·max|want| from
// want anywhere.
func closeTo(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	var scale, worst float64
	for _, v := range want.Data {
		scale = math.Max(scale, math.Abs(float64(v)))
	}
	for i := range want.Data {
		n, c, h, w := want.Shape.Coord(want.Layout, i)
		worst = math.Max(worst, math.Abs(float64(got.At(n, c, h, w))-float64(want.Data[i])))
	}
	if worst > gemmGradTol*scale {
		t.Errorf("%s: max |gemm - direct| = %.3g, over %.0e × max |direct| = %.3g", what, worst, gemmGradTol, gemmGradTol*scale)
	}
}

func TestGemmGradientsMatchDirect(t *testing.T) {
	for name, cfg := range gemmGradConfigs() {
		cfg = cfg.WithDefaults()
		for _, lay := range []tensor.Layout{tensor.NCHW, tensor.CHWN} {
			label := fmt.Sprintf("%s %v", name, lay)
			in := tensor.Random(cfg.InputShape(), lay, 1)
			filters := tensor.Filters(cfg.K, cfg.C, cfg.FH, cfg.FW, 2)
			dOut := tensor.Random(cfg.OutputShape(), lay, 3)

			want := tensor.New(cfg.InputShape(), lay)
			oracleConvBackwardData(dOut, filters, want, cfg)
			got := tensor.New(cfg.InputShape(), lay)
			got.Fill(float32(math.NaN())) // every element must be overwritten
			scratch := make([]float32, ConvGemmBackwardDataWorkspaceElems(cfg))
			if err := ConvGemmBackwardDataInto(dOut, filters, got, cfg, scratch); err != nil {
				t.Fatal(err)
			}
			closeTo(t, "backward-data "+label, got, want)

			want = tensor.New(cfg.FilterShape(), tensor.NCHW)
			oracleConvBackwardFilter(in, dOut, want, cfg)
			got = tensor.New(cfg.FilterShape(), tensor.NCHW)
			got.Fill(float32(math.NaN()))
			scratch = make([]float32, ConvGemmBackwardFilterWorkspaceElems(cfg))
			if err := ConvGemmBackwardFilterInto(in, dOut, got, cfg, scratch); err != nil {
				t.Fatal(err)
			}
			closeTo(t, "backward-filter "+label, got, want)
		}
	}
}

// TestGemmGradientsWorkerCountInvariant runs both GEMM gradients under
// GOMAXPROCS 1, 2, 3 and 8: lanes own what they write, so the bits must not
// move.
func TestGemmGradientsWorkerCountInvariant(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for name, cfg := range gemmGradConfigs() {
		cfg = cfg.WithDefaults()
		in := tensor.Random(cfg.InputShape(), tensor.NCHW, 4)
		filters := tensor.Filters(cfg.K, cfg.C, cfg.FH, cfg.FW, 5)
		dOut := tensor.Random(cfg.OutputShape(), tensor.NCHW, 6)
		dataScratch := make([]float32, ConvGemmBackwardDataWorkspaceElems(cfg))
		filterScratch := make([]float32, ConvGemmBackwardFilterWorkspaceElems(cfg))
		var wantIn, wantW *tensor.Tensor
		for _, procs := range []int{1, 2, 3, 8} {
			runtime.GOMAXPROCS(procs)
			dIn, dW := tensor.New(cfg.InputShape(), tensor.NCHW), tensor.New(cfg.FilterShape(), tensor.NCHW)
			if err := ConvGemmBackwardDataInto(dOut, filters, dIn, cfg, dataScratch); err != nil {
				t.Fatal(err)
			}
			if err := ConvGemmBackwardFilterInto(in, dOut, dW, cfg, filterScratch); err != nil {
				t.Fatal(err)
			}
			if wantIn == nil {
				wantIn, wantW = dIn, dW
				continue
			}
			sameBits(t, fmt.Sprintf("%s backward-data at %d workers", name, procs), dIn, wantIn)
			sameBits(t, fmt.Sprintf("%s backward-filter at %d workers", name, procs), dW, wantW)
		}
	}
}

// TestGemmGradientsReadSubnormalsAsZero gives both GEMM gradients an output
// gradient with subnormals of either sign in it: the bits must be those of
// the same gradient with zeros there.
func TestGemmGradientsReadSubnormalsAsZero(t *testing.T) {
	cfg := gemmGradConfigs()["padded-odd"].WithDefaults()
	in := tensor.Random(cfg.InputShape(), tensor.NCHW, 7)
	filters := tensor.Filters(cfg.K, cfg.C, cfg.FH, cfg.FW, 8)
	dOut := tensor.Random(cfg.OutputShape(), tensor.NCHW, 9)
	zeroed := dOut.Clone()
	for i := 0; i < len(dOut.Data); i += 3 {
		dOut.Data[i] = math.Float32frombits(uint32(i)<<31 | uint32(i+1)) // bit 31: the sign
		zeroed.Data[i] = 0
	}
	dataScratch := make([]float32, ConvGemmBackwardDataWorkspaceElems(cfg))
	filterScratch := make([]float32, ConvGemmBackwardFilterWorkspaceElems(cfg))
	run := func(g *tensor.Tensor) (dIn, dW *tensor.Tensor) {
		dIn, dW = tensor.New(cfg.InputShape(), tensor.NCHW), tensor.New(cfg.FilterShape(), tensor.NCHW)
		if err := ConvGemmBackwardDataInto(g, filters, dIn, cfg, dataScratch); err != nil {
			t.Fatal(err)
		}
		if err := ConvGemmBackwardFilterInto(in, g, dW, cfg, filterScratch); err != nil {
			t.Fatal(err)
		}
		return dIn, dW
	}
	gotIn, gotW := run(dOut)
	wantIn, wantW := run(zeroed)
	sameBits(t, "backward-data", gotIn, wantIn)
	sameBits(t, "backward-filter", gotW, wantW)
}

func TestGemmGradientsValidation(t *testing.T) {
	cfg := ConvConfig{N: 2, C: 2, H: 6, W: 6, K: 3, FH: 3, FW: 3}.WithDefaults()
	filters := tensor.Filters(cfg.K, cfg.C, cfg.FH, cfg.FW, 1)
	in, dOut := tensor.New(cfg.InputShape(), tensor.NCHW), tensor.New(cfg.OutputShape(), tensor.NCHW)
	dataScratch := make([]float32, ConvGemmBackwardDataWorkspaceElems(cfg))
	filterScratch := make([]float32, ConvGemmBackwardFilterWorkspaceElems(cfg))
	if err := ConvGemmBackwardDataInto(dOut, filters, in, cfg, dataScratch[:len(dataScratch)-1]); err == nil {
		t.Error("a short backward-data workspace must be rejected")
	}
	if err := ConvGemmBackwardFilterInto(in, dOut, tensor.New(cfg.FilterShape(), tensor.NCHW), cfg, filterScratch[:len(filterScratch)-1]); err == nil {
		t.Error("a short backward-filter workspace must be rejected")
	}
	if err := ConvGemmBackwardFilterInto(in, dOut, tensor.New(cfg.FilterShape(), tensor.CHWN), cfg, filterScratch); err == nil {
		t.Error("a filter gradient outside NCHW must be rejected")
	}
	if err := ConvGemmBackwardDataInto(in, filters, in, cfg, dataScratch); err == nil {
		t.Error("a wrong gradient shape must be rejected")
	}
}

// TestGemmGradientsOneOrderForEveryLayout runs both GEMM gradients over
// batchFoldedConvCases (one to 128 images, odd batches, strides and pads) in
// NCHW and CHWN under one and two workers: every result must have the bits of
// the NCHW one-worker result, which must lie within gemmGradTol of the direct
// sums.
func TestGemmGradientsOneOrderForEveryLayout(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for i, cfg := range batchFoldedConvCases {
		cfg = cfg.WithDefaults()
		filters := tensor.Filters(cfg.K, cfg.C, cfg.FH, cfg.FW, 2)
		nchwIn, nchwDOut := tensor.Random(cfg.InputShape(), tensor.NCHW, 1), tensor.Random(cfg.OutputShape(), tensor.NCHW, 3)
		dataScratch := make([]float32, ConvGemmBackwardDataWorkspaceElems(cfg))
		filterScratch := make([]float32, ConvGemmBackwardFilterWorkspaceElems(cfg))
		var wantIn, wantW *tensor.Tensor
		for _, lay := range []tensor.Layout{tensor.NCHW, tensor.CHWN} {
			in, dOut := tensor.New(cfg.InputShape(), lay), tensor.New(cfg.OutputShape(), lay)
			if err := tensor.ConvertInto(nchwIn, in); err != nil {
				t.Fatal(err)
			}
			if err := tensor.ConvertInto(nchwDOut, dOut); err != nil {
				t.Fatal(err)
			}
			for _, procs := range []int{1, 2} {
				runtime.GOMAXPROCS(procs)
				label := fmt.Sprintf("case %d %v at %d workers", i, lay, procs)
				dIn, dW := tensor.New(cfg.InputShape(), lay), tensor.New(cfg.FilterShape(), tensor.NCHW)
				dIn.Fill(float32(math.NaN()))
				dW.Fill(float32(math.NaN()))
				if err := ConvGemmBackwardDataInto(dOut, filters, dIn, cfg, dataScratch); err != nil {
					t.Fatal(err)
				}
				if err := ConvGemmBackwardFilterInto(in, dOut, dW, cfg, filterScratch); err != nil {
					t.Fatal(err)
				}
				if wantIn == nil {
					wantIn, wantW = dIn, dW
					direct := tensor.New(cfg.InputShape(), tensor.NCHW)
					oracleConvBackwardData(dOut, filters, direct, cfg)
					closeTo(t, "backward-data "+label, dIn, direct)
					direct = tensor.New(cfg.FilterShape(), tensor.NCHW)
					oracleConvBackwardFilter(in, dOut, direct, cfg)
					closeTo(t, "backward-filter "+label, dW, direct)
					continue
				}
				back := tensor.New(cfg.InputShape(), tensor.NCHW)
				if err := tensor.ConvertInto(dIn, back); err != nil {
					t.Fatal(err)
				}
				sameBits(t, "backward-data "+label, back, wantIn)
				sameBits(t, "backward-filter "+label, dW, wantW)
			}
		}
	}
}

// TestPoolBackwardCHWNMatchesNCHW holds an all-CHWN pooling backward, whose
// lanes are the images, to an all-NCHW one, whose lanes run along ow, bit for
// bit: 2×2/2 and overlapping 3×3/2 windows, batches below, at and above a
// tile of lanes, inputs with ties.
func TestPoolBackwardCHWNMatchesNCHW(t *testing.T) {
	for _, window := range []int{2, 3} {
		for _, n := range []int{1, 5, laneTile, laneTile + 3} {
			cfg := PoolConfig{N: n, C: 3, H: 9, W: 8, Window: window, Stride: 2}
			in := tensor.Random(cfg.InputShape(), tensor.NCHW, uint64(window))
			for i, v := range in.Data {
				in.Data[i] = float32(math.Round(float64(v) * 2)) // ties
			}
			dOut := tensor.Random(cfg.OutputShape(), tensor.NCHW, 5)
			want := tensor.New(cfg.InputShape(), tensor.NCHW)
			if err := PoolBackwardInto(in, dOut, want, cfg); err != nil {
				t.Fatal(err)
			}
			cin, cdOut, got := tensor.New(cfg.InputShape(), tensor.CHWN), tensor.New(cfg.OutputShape(), tensor.CHWN), tensor.New(cfg.InputShape(), tensor.CHWN)
			if err := tensor.ConvertInto(in, cin); err != nil {
				t.Fatal(err)
			}
			if err := tensor.ConvertInto(dOut, cdOut); err != nil {
				t.Fatal(err)
			}
			got.Fill(-1)
			if err := PoolBackwardInto(cin, cdOut, got, cfg); err != nil {
				t.Fatal(err)
			}
			back := tensor.New(cfg.InputShape(), tensor.NCHW)
			if err := tensor.ConvertInto(got, back); err != nil {
				t.Fatal(err)
			}
			sameBits(t, cfg.String(), back, want)
		}
	}
}
