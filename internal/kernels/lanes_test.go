package kernels

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"memcnn/internal/tensor"
)

// The oracles below are the At/Set loops the lane kernels replaced, kept
// serial: one float64 accumulator per output element, taps in ascending
// order, out-of-range taps skipped, one rounding to float32.  The lane
// kernels must reproduce them bit for bit.

func oracleConvForward(in, filters, out *tensor.Tensor, cfg ConvConfig) {
	for n := 0; n < cfg.N; n++ {
		for k := 0; k < cfg.K; k++ {
			for oh := 0; oh < cfg.OutH(); oh++ {
				for ow := 0; ow < cfg.OutW(); ow++ {
					var acc float64
					for c := 0; c < cfg.C; c++ {
						for fh := 0; fh < cfg.FH; fh++ {
							ih := oh*cfg.StrideH - cfg.PadH + fh
							if ih < 0 || ih >= cfg.H {
								continue
							}
							for fw := 0; fw < cfg.FW; fw++ {
								iw := ow*cfg.StrideW - cfg.PadW + fw
								if iw < 0 || iw >= cfg.W {
									continue
								}
								acc += float64(in.At(n, c, ih, iw)) * float64(filters.At(k, c, fh, fw))
							}
						}
					}
					out.Set(n, k, oh, ow, float32(acc))
				}
			}
		}
	}
}

func oraclePool(in, out *tensor.Tensor, cfg PoolConfig) {
	for n := 0; n < cfg.N; n++ {
		for c := 0; c < cfg.C; c++ {
			for oh := 0; oh < cfg.OutH(); oh++ {
				for ow := 0; ow < cfg.OutW(); ow++ {
					h0, w0 := oh*cfg.Stride, ow*cfg.Stride
					best := in.At(n, c, h0, w0)
					var sum float64
					for y := 0; y < cfg.Window; y++ {
						for x := 0; x < cfg.Window; x++ {
							v := in.At(n, c, h0+y, w0+x)
							if v > best {
								best = v
							}
							sum += float64(v)
						}
					}
					if cfg.Op == AvgPool {
						best = float32(sum / float64(cfg.Window*cfg.Window))
					}
					out.Set(n, c, oh, ow, best)
				}
			}
		}
	}
}

// oraclePoolBackward is the At/Set loop PoolBackwardInto's stride walk
// replaced: zero the plane, then scatter every output gradient in (oh, ow)
// order, to the window's first maximum or spread over the window.
func oraclePoolBackward(in, dOut, dIn *tensor.Tensor, cfg PoolConfig) {
	for n := 0; n < cfg.N; n++ {
		for c := 0; c < cfg.C; c++ {
			for h := 0; h < cfg.H; h++ {
				for w := 0; w < cfg.W; w++ {
					dIn.Set(n, c, h, w, 0)
				}
			}
			for oh := 0; oh < cfg.OutH(); oh++ {
				for ow := 0; ow < cfg.OutW(); ow++ {
					g := dOut.At(n, c, oh, ow)
					h0, w0 := oh*cfg.Stride, ow*cfg.Stride
					if cfg.Op == AvgPool {
						share := g / float32(cfg.Window*cfg.Window)
						for y := 0; y < cfg.Window; y++ {
							for x := 0; x < cfg.Window; x++ {
								dIn.Set(n, c, h0+y, w0+x, dIn.At(n, c, h0+y, w0+x)+share)
							}
						}
						continue
					}
					bestY, bestX := 0, 0
					best := in.At(n, c, h0, w0)
					for y := 0; y < cfg.Window; y++ {
						for x := 0; x < cfg.Window; x++ {
							if v := in.At(n, c, h0+y, w0+x); v > best {
								best, bestY, bestX = v, y, x
							}
						}
					}
					dIn.Set(n, c, h0+bestY, w0+bestX, dIn.At(n, c, h0+bestY, w0+bestX)+g)
				}
			}
		}
	}
}

// sameBits fails the test at the first element where got and want differ.
func sameBits(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	for i, v := range want.Data {
		if got.Data[i] != v {
			n, c, h, w := want.Shape.Coord(want.Layout, i)
			t.Fatalf("%s: element (%d,%d,%d,%d) = %v, oracle %v", what, n, c, h, w, got.Data[i], v)
		}
	}
}

// laneConvConfigs covers every stride 1–3 × pad 0–3 combination (mixed
// between H and W), filters wider and taller than the input, batches on
// either side of a lane tile, rows and filter rows wider than one tile.
func laneConvConfigs() []ConvConfig {
	var cfgs []ConvConfig
	for s := 1; s <= 3; s++ {
		for p := 0; p <= 3; p++ {
			cfgs = append(cfgs, ConvConfig{N: 3, C: 2, H: 7, W: 9, K: 3, FH: 3, FW: 4,
				StrideH: s, StrideW: 1 + (s+p)%3, PadH: p, PadW: (p + s) % 4})
		}
	}
	cfgs = append(cfgs,
		ConvConfig{N: 2, C: 2, H: 5, W: 5, K: 2, FH: 9, FW: 9, PadH: 2, PadW: 2},
		ConvConfig{N: 2, C: 1, H: 4, W: 3, K: 2, FH: 2, FW: 7, StrideW: 2, PadW: 3},
		ConvConfig{N: 2, C: 2, H: 3, W: 70, K: 2, FH: 2, FW: 3, PadW: 1},
		ConvConfig{N: 2, C: 1, H: 3, W: 135, K: 2, FH: 1, FW: 3, StrideW: 2},
		ConvConfig{N: 2, C: 1, H: 2, W: 70, K: 1, FH: 1, FW: 66, PadW: 1},
	)
	for _, n := range []int{1, laneTile - 1, laneTile, laneTile + 1} {
		cfgs = append(cfgs, ConvConfig{N: n, C: 2, H: 4, W: 4, K: 2, FH: 3, FW: 3, StrideH: 2, PadH: 1, PadW: 1})
	}
	for i := range cfgs {
		cfgs[i] = cfgs[i].WithDefaults()
	}
	return cfgs
}

func TestLaneConvKernelsMatchOracle(t *testing.T) {
	for ci, cfg := range laneConvConfigs() {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("config %d: %v", ci, err)
		}
		for _, la := range tensor.Layouts {
			for _, lb := range tensor.Layouts {
				// The filter bank takes a different layout on each pair.
				lf := tensor.Layouts[(int(la)+int(lb))%len(tensor.Layouts)]
				name := fmt.Sprintf("%v %v→%v filters %v", cfg, la, lb, lf)
				in := tensor.Random(cfg.InputShape(), la, uint64(ci)+1)
				filters := tensor.Convert(tensor.Filters(cfg.K, cfg.C, cfg.FH, cfg.FW, uint64(ci)+2), lf)

				got, want := tensor.New(cfg.OutputShape(), lb), tensor.New(cfg.OutputShape(), lb)
				if err := ConvDirectInto(in, filters, got, cfg); err != nil {
					t.Fatal(err)
				}
				oracleConvForward(in, filters, want, cfg)
				sameBits(t, "forward "+name, got, want)
			}
		}
	}
}

func lanePoolConfigs() []PoolConfig {
	var cfgs []PoolConfig
	for _, op := range []PoolOp{MaxPool, AvgPool} {
		for window := 2; window <= 3; window++ {
			for stride := 1; stride <= 3; stride++ {
				cfgs = append(cfgs, PoolConfig{N: 3, C: 2, H: 8, W: 9, Window: window, Stride: stride, Op: op})
			}
		}
		cfgs = append(cfgs, PoolConfig{N: 2, C: 1, H: 3, W: 140, Window: 3, Stride: 2, Op: op})
		for _, n := range []int{1, laneTile - 1, laneTile, laneTile + 1} {
			cfgs = append(cfgs, PoolConfig{N: n, C: 2, H: 5, W: 5, Window: 3, Stride: 2, Op: op})
		}
	}
	return cfgs
}

func TestLanePoolMatchesOracle(t *testing.T) {
	for ci, cfg := range lanePoolConfigs() {
		for _, la := range tensor.Layouts {
			for _, lb := range tensor.Layouts {
				in := tensor.Random(cfg.InputShape(), la, uint64(ci)+1)
				got, want := tensor.New(cfg.OutputShape(), lb), tensor.New(cfg.OutputShape(), lb)
				if err := PoolInto(in, got, cfg); err != nil {
					t.Fatal(err)
				}
				oraclePool(in, want, cfg)
				sameBits(t, fmt.Sprintf("%v %v→%v", cfg, la, lb), got, want)
			}
		}
	}
}

// TestPoolBackwardMatchesOracle holds the stride walk to the At/Set loop bit
// for bit: max and average, 2×2/2 and overlapping 3×3/2 windows, every
// NCHW/CHWN combination of the forward input, the incoming gradient and the
// result, with one tile of lanes and with more than one along N and along
// ow.  Inputs with repeated values exercise the first-max tie rule.
func TestPoolBackwardMatchesOracle(t *testing.T) {
	layouts := []tensor.Layout{tensor.NCHW, tensor.CHWN}
	for _, op := range []PoolOp{MaxPool, AvgPool} {
		for _, window := range []int{2, 3} {
			for _, cfg := range []PoolConfig{
				{N: 3, C: 2, H: 9, W: 8, Window: window, Stride: 2, Op: op},
				{N: laneTile + 3, C: 2, H: 5, W: 6, Window: window, Stride: 2, Op: op},
				{N: 2, C: 2, H: 5, W: 2*laneTile + 7, Window: window, Stride: 2, Op: op},
			} {
				for _, li := range layouts {
					for _, lg := range layouts {
						for _, ld := range layouts {
							in := tensor.Random(cfg.InputShape(), li, uint64(window))
							for i, v := range in.Data {
								in.Data[i] = float32(math.Round(float64(v) * 2)) // ties
							}
							dOut := tensor.Random(cfg.OutputShape(), lg, 5)
							got, want := tensor.New(cfg.InputShape(), ld), tensor.New(cfg.InputShape(), ld)
							got.Fill(-1)
							if err := PoolBackwardInto(in, dOut, got, cfg); err != nil {
								t.Fatal(err)
							}
							oraclePoolBackward(in, dOut, want, cfg)
							sameBits(t, fmt.Sprintf("%v in %v, dOut %v, dIn %v", cfg, li, lg, ld), got, want)
						}
					}
				}
			}
		}
	}
}

// laneKernelRuns returns one run of each lane kernel on a layer with several
// tiles per plane (two lanes for the GEMM convolution, its columns image by
// image in CHWN and position by position in NCHW), and the tensors the runs
// write.
func laneKernelRuns(t *testing.T, layout tensor.Layout) (runs []func() error, outputs []*tensor.Tensor) {
	t.Helper()
	cfg := ConvConfig{N: laneTile + 3, C: 3, H: 9, W: 9, K: 4, FH: 3, FW: 3, StrideW: 2, PadH: 1, PadW: 1}.WithDefaults()
	pcfg := PoolConfig{N: cfg.N, C: cfg.C, H: cfg.H, W: cfg.W, Window: 3, Stride: 2, Op: AvgPool}
	in := tensor.Random(cfg.InputShape(), layout, 1)
	filters := tensor.Filters(cfg.K, cfg.C, cfg.FH, cfg.FW, 2)
	dOut := tensor.Random(cfg.OutputShape(), layout, 3)
	out := tensor.New(cfg.OutputShape(), layout)
	pooled := tensor.New(pcfg.OutputShape(), layout)
	packed, err := PackConvFilters(filters, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gemmOut := tensor.New(cfg.OutputShape(), layout)
	scratch := make([]float32, ConvGemmWorkspaceElems(cfg, layout))
	dIn, dW := tensor.New(cfg.InputShape(), layout), tensor.New(cfg.FilterShape(), tensor.NCHW)
	dataScratch := make([]float32, ConvGemmBackwardDataWorkspaceElems(cfg))
	filterScratch := make([]float32, ConvGemmBackwardFilterWorkspaceElems(cfg))
	pdOut, pdIn := tensor.Random(pcfg.OutputShape(), layout, 4), tensor.New(pcfg.InputShape(), layout)
	runs = []func() error{
		func() error { return ConvDirectInto(in, filters, out, cfg) },
		func() error { return PoolInto(in, pooled, pcfg) },
		func() error { return ConvIm2colGemmInto(in, packed, gemmOut, cfg, scratch) },
		func() error { return ConvGemmBackwardDataInto(dOut, filters, dIn, cfg, dataScratch) },
		func() error { return ConvGemmBackwardFilterInto(in, dOut, dW, cfg, filterScratch) },
		func() error { return PoolBackwardInto(in, pdOut, pdIn, pcfg) },
	}
	return runs, []*tensor.Tensor{out, pooled, gemmOut, dIn, dW, pdIn}
}

func TestLaneKernelsWorkerCountInvariant(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, layout := range []tensor.Layout{tensor.NCHW, tensor.CHWN} {
		runs, outputs := laneKernelRuns(t, layout)
		var want []*tensor.Tensor
		for _, workers := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(workers)
			for i, run := range runs {
				outputs[i].Fill(-1)
				if err := run(); err != nil {
					t.Fatal(err)
				}
				if workers == 1 {
					want = append(want, outputs[i].Clone())
					continue
				}
				sameBits(t, fmt.Sprintf("kernel %d %v at %d workers", i, layout, workers), outputs[i], want[i])
			}
		}
	}
}

func TestLaneKernelsAllocationFreeAtOneWorker(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, layout := range []tensor.Layout{tensor.NCHW, tensor.CHWN} {
		runs, _ := laneKernelRuns(t, layout)
		for i, run := range runs {
			if allocs := testing.AllocsPerRun(5, func() { _ = run() }); allocs != 0 {
				t.Errorf("kernel %d %v: %v allocations per run at one worker, want 0", i, layout, allocs)
			}
		}
	}
}
