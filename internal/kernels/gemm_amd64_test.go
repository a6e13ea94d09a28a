//go:build amd64 && !purego

package kernels

import (
	"fmt"
	"math/rand"
	"testing"

	"memcnn/internal/tensor"
)

// gemmBodies lists the micro-kernel bodies this build has, widest first: the
// two assembly bodies, then the pure-Go one.
var gemmBodies = []gemmBody{{"avx512", true, true}, {"avx2", true, false}, {"go", false, false}}

// hostAVX2 and hostAVX512 are what the start-up check found, whatever a test
// has switched the dispatch to since.
var hostAVX2, hostAVX512 = vectorISA()

// use switches the dispatch to the body until tb ends, or skips tb, saying
// why, when this host cannot run it.
func (g gemmBody) use(tb testing.TB) {
	tb.Helper()
	if g.avx512 && !hostAVX512 {
		tb.Skipf("body=%s: the CPU or the OS lacks AVX-512F with the ZMM state, so this body never runs here", g.name)
	}
	if g.avx2 && !hostAVX2 {
		tb.Skipf("body=%s: the CPU or the OS lacks AVX2 and FMA, so this body never runs here", g.name)
	}
	prev2, prev512 := useAVX2, useAVX512
	useAVX2, useAVX512 = g.avx2, g.avx512
	tb.Cleanup(func() { useAVX2, useAVX512 = prev2, prev512 })
}

// bodyShapes is the shape table plus row counts around gemmPairM, two slab
// pairs and odd slab counts (3, 5 and 7 slabs), with a reduction inside one
// gemmKC block and one that crosses it into a 3-step block.
func bodyShapes() [][3]int {
	shapes := gemmShapes()
	for _, m := range []int{11, 12, 13, 18, 23, 24, 25, 30, 42} {
		shapes = append(shapes, [3]int{m, 2*gemmNR + 1, 100}, [3]int{m, gemmNR, gemmKC + 3})
	}
	return shapes
}

// TestGemmAssemblyMatchesPureGo runs the shape table through the packed core
// on the pure-Go body, then once per assembly body in a sub-test, and wants
// the same bits.
func TestGemmAssemblyMatchesPureGo(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	var ops [][]float32
	for _, s := range bodyShapes() {
		m, n, k := s[0], s[1], s[2]
		a, _ := guarded(r, m*k)
		b, _ := guarded(r, k*n)
		ops = append(ops, a, b)
	}
	var pure [][]float32
	gemmBodies[2].use(t)
	for i, s := range bodyShapes() {
		c, err := Gemm(ops[2*i], ops[2*i+1], s[0], s[1], s[2])
		if err != nil {
			t.Fatal(err)
		}
		pure = append(pure, c)
	}
	for _, body := range gemmBodies[:2] {
		t.Run("body="+body.name, func(t *testing.T) {
			body.use(t)
			for i, s := range bodyShapes() {
				c, err := Gemm(ops[2*i], ops[2*i+1], s[0], s[1], s[2])
				if err != nil {
					t.Fatal(err)
				}
				equalBits(t, fmt.Sprintf("%dx%dx%d", s[0], s[1], s[2]), c, pure[i])
			}
		})
	}
}

// TestGemmMicroKernelContract drives each assembly body directly inside a
// wider C fenced by NaNs, overwriting and accumulating, against gemmMicroGo:
// the AVX2 body on one slab, the ZMM body on a slab pair.  B's table points
// at consecutive rows of a fenced panel, then at the same rows scattered out
// of order with every third one gemmZeroRow, as an input read in place is.
func TestGemmMicroKernelContract(t *testing.T) {
	const ldc = gemmNR + 5
	for _, body := range gemmBodies[:2] {
		t.Run("body="+body.name, func(t *testing.T) {
			body.use(t)
			r := rand.New(rand.NewSource(53))
			slabs := 1
			if body.avx512 {
				slabs = 2
			}
			for _, kc := range []int{1, 2, 7, 25, gemmKC} {
				a0, _ := guarded(r, kc*gemmMR)
				a1, _ := guarded(r, kc*gemmMR)
				b, _ := guarded(r, kc*gemmNR)
				var packed panelRows
				var scattered gemmRows
				for kk, p := range r.Perm(kc) {
					scattered[kk] = (*[gemmNR]float32)(b[p*gemmNR:])
					if kk%3 == 2 {
						scattered[kk] = &gemmZeroRow
					}
				}
				for _, rows := range []*gemmRows{packed.of(b, kc), &scattered} {
					for _, accumulate := range []bool{false, true} {
						cAsm, backing := guarded(r, (slabs*gemmMR-1)*ldc+gemmNR)
						cGo := append([]float32(nil), cAsm...)
						if body.avx512 {
							gemmMicroAVX512(kc, &a0[0], &a1[0], rows, &cAsm[0], ldc, accumulate)
							gemmMicroGo(kc, a1, rows, cGo[gemmMR*ldc:], ldc, accumulate)
						} else {
							gemmMicroAVX2(kc, &a0[0], rows, &cAsm[0], ldc, accumulate)
						}
						gemmMicroGo(kc, a0, rows, cGo, ldc, accumulate)
						what := fmt.Sprintf("kc=%d accumulate=%v scattered=%v", kc, accumulate, rows == &scattered)
						equalBits(t, what, cAsm, cGo)
						if !fenceIntact(backing, len(cAsm)) {
							t.Fatalf("%s: the body wrote outside its tile", what)
						}
					}
				}
			}
		})
	}
}

// TestConvGemmBodiesAgree runs a convolution's forward and both GEMM
// gradients through each micro-kernel body, in both layouts, and wants the
// pure-Go body's bits.  The forward's 64 filters over a reduction of 216 take
// the slab-pair entry.  Then each body runs the forward of every
// inPlaceConvCases shape into CHWN from a CHWN input, whose one-run panels it
// reads in place through row tables, and from the same values in NCHW, whose
// panels it unrolls: both must give the bits of the pure-Go body's unrolled
// run.
func TestConvGemmBodiesAgree(t *testing.T) {
	cfg := ConvConfig{N: 16, C: 24, H: 8, W: 8, K: 64, FH: 3, FW: 3, PadH: 1, PadW: 1}.WithDefaults()
	filters := tensor.Filters(cfg.K, cfg.C, cfg.FH, cfg.FW, 2)
	packed, err := PackConvFilters(filters, cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func(lay tensor.Layout) []*tensor.Tensor {
		in, dOut := tensor.Random(cfg.InputShape(), lay, 1), tensor.Random(cfg.OutputShape(), lay, 3)
		out, dIn, dW := tensor.New(cfg.OutputShape(), lay), tensor.New(cfg.InputShape(), lay), tensor.New(cfg.FilterShape(), tensor.NCHW)
		scratch := make([]float32, max(ConvGemmWorkspaceElems(cfg, lay), ConvGemmBackwardDataWorkspaceElems(cfg), ConvGemmBackwardFilterWorkspaceElems(cfg)))
		if err := ConvIm2colGemmInto(in, packed, out, cfg, scratch); err != nil {
			t.Fatal(err)
		}
		if err := ConvGemmBackwardDataInto(dOut, filters, dIn, cfg, scratch); err != nil {
			t.Fatal(err)
		}
		if err := ConvGemmBackwardFilterInto(in, dOut, dW, cfg, scratch); err != nil {
			t.Fatal(err)
		}
		return []*tensor.Tensor{out, dIn, dW}
	}
	forward := func(c ConvConfig, inLay tensor.Layout) *tensor.Tensor {
		f := tensor.Filters(c.K, c.C, c.FH, c.FW, 2)
		p, err := PackConvFilters(f, c)
		if err != nil {
			t.Fatal(err)
		}
		out := tensor.New(c.OutputShape(), tensor.CHWN)
		scratch := make([]float32, ConvGemmWorkspaceElems(c, tensor.CHWN))
		if err := ConvIm2colGemmInto(tensor.Convert(tensor.Random(c.InputShape(), tensor.CHWN, 4), inLay), p, out, c, scratch); err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := map[tensor.Layout][]*tensor.Tensor{}
	var unrolled []*tensor.Tensor
	gemmBodies[2].use(t)
	for _, lay := range tensor.Layouts {
		want[lay] = run(lay)
	}
	for _, c := range inPlaceConvCases {
		unrolled = append(unrolled, forward(c.WithDefaults(), tensor.NCHW))
	}
	for _, body := range gemmBodies {
		t.Run("body="+body.name, func(t *testing.T) {
			body.use(t)
			if body.avx2 {
				for _, lay := range tensor.Layouts {
					for i, got := range run(lay) {
						equalBits(t, fmt.Sprintf("%v %s", lay, []string{"forward", "data gradient", "filter gradient"}[i]), got.Data, want[lay][i].Data)
					}
				}
			}
			for i, c := range inPlaceConvCases {
				c = c.WithDefaults()
				for _, inLay := range tensor.Layouts {
					equalBits(t, fmt.Sprintf("%v from %v", c, inLay), forward(c, inLay).Data, unrolled[i].Data)
				}
			}
		})
	}
}
