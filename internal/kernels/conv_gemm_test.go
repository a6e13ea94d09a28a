package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"memcnn/internal/tensor"
)

// poison fills a slice with NaN so any read-before-write in a workspace user
// surfaces as a NaN in its output.
func poison(s []float32) {
	nan := float32(math.NaN())
	for i := range s {
		s[i] = nan
	}
}

// TestPackConvFilters checks the packed operand against the slab format of
// the GEMM core: filter k's (c, fh, fw) flattening is row k%gemmMR of slab
// k/gemmMR, the rows the last slab lacks are zero, and neither the filters'
// layout nor what the destination held changes a bit.
func TestPackConvFilters(t *testing.T) {
	cfg := ConvConfig{N: 1, C: 2, H: 5, W: 5, K: gemmMR + 2, FH: 3, FW: 3}
	filters := tensor.Filters(cfg.K, cfg.C, cfg.FH, cfg.FW, 7)
	packed, err := PackConvFilters(filters, cfg)
	if err != nil {
		t.Fatal(err)
	}
	kdim := cfg.ReductionLength()
	if len(packed) != 2*gemmMR*kdim {
		t.Fatalf("packed length %d, want two slabs = %d", len(packed), 2*gemmMR*kdim)
	}
	for k := 0; k < 2*gemmMR; k++ {
		idx := 0
		for c := 0; c < cfg.C; c++ {
			for fh := 0; fh < cfg.FH; fh++ {
				for fw := 0; fw < cfg.FW; fw++ {
					var want float32
					if k < cfg.K {
						want = filters.At(k, c, fh, fw)
					}
					if got := packed[k/gemmMR*gemmMR*kdim+idx*gemmMR+k%gemmMR]; got != want {
						t.Fatalf("packed row %d step %d = %v, want filters(%d,%d,%d,%d) = %v", k, idx, got, k, c, fh, fw, want)
					}
					idx++
				}
			}
		}
	}
	for _, lay := range tensor.Layouts {
		into := make([]float32, len(packed))
		poison(into)
		if err := PackConvFiltersInto(into, tensor.Convert(filters, lay), cfg); err != nil {
			t.Fatal(err)
		}
		equalBits(t, "PackConvFiltersInto from "+lay.String(), into, packed)
	}
	if err := PackConvFiltersInto(packed[1:], filters, cfg); err == nil {
		t.Error("short destination must be rejected")
	}
	bad := tensor.Filters(cfg.K, cfg.C+1, cfg.FH, cfg.FW, 7)
	if _, err := PackConvFilters(bad, cfg); err == nil {
		t.Error("mismatched filter bank must be rejected")
	}
}

// oldConvIm2colGemm is the GEMM convolution as it ran before the packed core:
// the reference unroll matrix, the row-major filter flattening, the old GEMM
// loop once per image, and a scatter into the output layout.
func oldConvIm2colGemm(t *testing.T, in, filters *tensor.Tensor, cfg ConvConfig, outLayout tensor.Layout) *tensor.Tensor {
	t.Helper()
	cfg = cfg.WithDefaults()
	unroll, err := Im2col(in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	kdim, outW := cfg.ReductionLength(), cfg.OutW()
	ohw := cfg.OutH() * outW
	flat := tensor.Convert(filters, tensor.NCHW).Data
	out := tensor.New(cfg.OutputShape(), outLayout)
	image := make([]float32, kdim*ohw)
	for n := 0; n < cfg.N; n++ {
		for row := 0; row < kdim; row++ {
			copy(image[row*ohw:(row+1)*ohw], unroll[row*cfg.N*ohw+n*ohw:])
		}
		prod := oldGemm(flat, image, cfg.K, ohw, kdim)
		for i, v := range prod {
			out.Set(n, i/ohw, i%ohw/outW, i%outW, v)
		}
	}
	return out
}

// batchFoldedConvCases covers every regime of the lane loop with the images
// fastest (CHWN outputs of several images): one pixel a panel,
// panels straddling pixels, a ragged last panel, one and several lanes, the
// narrow panels of a workspace under one gemmNR-column slot, and the runs that
// stride-W 1 extends across the pixels whose window is inside the image, cut by
// both padded edges and by panel ends.  Each stays under 2^20 multiply-adds and
// inside FuzzConvGemmLayouts' ranges, whose seeds they are.
var batchFoldedConvCases = []ConvConfig{
	// N = 16: a panel is one pixel; C·FH·FW = 400 > gemmKC; K cuts the last slab.
	{N: 16, C: 16, H: 4, W: 4, K: 8, FH: 5, FW: 5, PadH: 2, PadW: 2},
	// N = 16, K = 25 (gemmPairM and more): two slab pairs, then the partial
	// slab.
	{N: 16, C: 4, H: 4, W: 4, K: 25, FH: 5, FW: 5, PadH: 2, PadW: 2},
	// N = 17: panels straddle pixels, the last one is ragged; C·FH·FW = 12 < gemmNR.
	{N: 17, C: 2, H: 9, W: 10, K: 5, FH: 3, FW: 2, StrideW: 2, PadW: 1},
	// N = 32: two panels a pixel, three lanes.
	{N: 32, C: 3, H: 6, W: 7, K: 7, FH: 3, FW: 3, PadH: 1, PadW: 1},
	// N = 128, StrideW 4 with padding, whole slabs only.
	{N: 128, C: 1, H: 12, W: 12, K: 6, FH: 3, FW: 5, StrideW: 4, PadW: 2},
	// N = 1: every column is its own pixel.
	{N: 1, C: 2, H: 7, W: 8, K: 4, FH: 3, FW: 3, StrideW: 2, PadH: 1, PadW: 1},
	// N = 4, a filter wider than the row and one side's padding; OutH·OutW = 12,
	// so the workspace holds one 13-column slot.
	{N: 4, C: 2, H: 5, W: 3, K: 3, FH: 2, FW: 7, PadW: 3},
	// The whole product is narrower than a panel (12 columns, slots of 5).
	{N: 3, C: 2, H: 3, W: 3, K: 2, FH: 2, FW: 2},
	// OutH·OutW = 4 with N ≥ gemmNR: 80 columns through 4-column panels, the
	// reduction in two gemmKC blocks.
	{N: 20, C: 16, H: 2, W: 2, K: 8, FH: 5, FW: 5, PadH: 2, PadW: 2},
	// Stride-W 1 with padding at N = 1 (one order in every layout), 2 and 3:
	// OutW < gemmNR, so a run over the inside pixels ends at the row's padded
	// edge or at the panel's end, and W < FW leaves a row no inside pixel.
	{N: 1, C: 2, H: 5, W: 9, K: 3, FH: 3, FW: 3, PadH: 1, PadW: 1},
	{N: 2, C: 2, H: 5, W: 9, K: 3, FH: 3, FW: 3, PadH: 1, PadW: 1},
	{N: 3, C: 3, H: 4, W: 11, K: 5, FH: 3, FW: 5, PadH: 1, PadW: 2},
	{N: 2, C: 2, H: 6, W: 4, K: 4, FH: 3, FW: 5, PadH: 1, PadW: 2},
	{N: 3, C: 1, H: 3, W: 3, K: 2, FH: 2, FW: 4, PadW: 3},
}

// inPlaceConvCases have panels the lane loop reads in place (a CHWN input,
// image by image: one run of gemmNR columns) next to panels it unrolls: one
// position's images at N ≥ 16, and at N < 16 the runs carried across a row's
// inside positions.  Together they take pad 0, 1 and 2, stride 1 and 2, K of
// one slab pair (12), a pair and a partial slab (13, 16, 17), a pair alone
// (24) and several pairs (64), and reductions over gemmKC (two kc blocks).
// Each has OutH·OutW ≥ gemmNR, so its workspace holds whole panels, stays
// under 2^20 multiply-adds and lies inside FuzzConvGemmLayouts' ranges, whose
// seeds they are.
var inPlaceConvCases = []ConvConfig{
	// N = 16: every panel one position; C·FH·FW = 275, two kc blocks.
	{N: 16, C: 11, H: 4, W: 4, K: 12, FH: 5, FW: 5, PadH: 2, PadW: 2},
	// N = 8, pad 0: every position inside, so runs carry across whole rows
	// and a panel ending a row is cut in two.
	{N: 8, C: 3, H: 7, W: 9, K: 17, FH: 3, FW: 3},
	// N = 15, pad 2: runs carry across the inside positions only.
	{N: 15, C: 2, H: 8, W: 8, K: 24, FH: 3, FW: 3, PadH: 2, PadW: 2},
	// N = 17, stride 2: a panel inside one position is read in place, one
	// straddling two is unrolled.
	{N: 17, C: 3, H: 5, W: 5, K: 64, FH: 3, FW: 3, StrideH: 2, StrideW: 2, PadH: 2, PadW: 2},
	// N = 16, stride 2, C·FH·FW = 300: two kc blocks.
	{N: 16, C: 12, H: 7, W: 7, K: 13, FH: 5, FW: 5, StrideH: 2, StrideW: 2, PadH: 2, PadW: 2},
	// N = 32: two panels a position.
	{N: 32, C: 2, H: 4, W: 4, K: 24, FH: 3, FW: 3, PadH: 1, PadW: 1},
	// N = 128: LeNet's conv1 on a 4×4 image.
	{N: 128, C: 1, H: 4, W: 4, K: 16, FH: 5, FW: 5, PadH: 2, PadW: 2},
	// N = 16, pad 0, K = 64.
	{N: 16, C: 2, H: 6, W: 6, K: 64, FH: 3, FW: 3},
}

// convGemmMatchesOldPath runs one configuration through ConvIm2colGemmInto for
// every pair of the given layouts and compares it with oldConvIm2colGemm bit
// for bit: filters and scratch fenced by NaNs, scratch and output poisoned.
// The scratch is exactly one image's unroll, so the fence catches a lane that
// writes past it.
func convGemmMatchesOldPath(t *testing.T, r *rand.Rand, cfg ConvConfig, layouts []tensor.Layout) {
	t.Helper()
	filters := tensor.Filters(cfg.K, cfg.C, cfg.FH, cfg.FW, 2)
	flat, err := PackConvFilters(filters, cfg)
	if err != nil {
		t.Fatal(err)
	}
	packed, _ := guarded(r, len(flat))
	copy(packed, flat)
	for _, inLay := range layouts {
		in := tensor.Random(cfg.InputShape(), inLay, 1)
		for _, outLay := range layouts {
			want := oldConvIm2colGemm(t, in, filters, cfg, outLay)
			out := tensor.New(cfg.OutputShape(), outLay)
			poison(out.Data)
			elems := ConvGemmWorkspaceElems(cfg, outLay)
			scratch, backing := guarded(r, elems)
			poison(scratch)
			if err := ConvIm2colGemmInto(in, packed, out, cfg, scratch); err != nil {
				t.Fatalf("%v: %v", cfg, err)
			}
			sameBits(t, fmt.Sprintf("%v %v->%v", cfg, inLay, outLay), out, want)
			if !fenceIntact(backing, elems) {
				t.Fatalf("%v %v->%v: wrote outside the scratch", cfg, inLay, outLay)
			}
		}
	}
}

// TestConvIm2colGemmIntoMatchesOldPath pins the GEMM convolution — the fused
// unroll-and-pack plus the packed core, in either column order — to the
// outputs of the path it replaced, bit for bit: every small case, four wider
// strided, padded and ragged ones and the image-fastest regimes, over all
// four layout pairs.
func TestConvIm2colGemmIntoMatchesOldPath(t *testing.T) {
	cases := append([]ConvConfig{
		{N: 2, C: 3, H: 23, W: 37, K: 7, FH: 5, FW: 3, PadH: 2, PadW: 1, StrideH: 2},
		{N: 1, C: 2, H: 19, W: 40, K: 13, FH: 3, FW: 7, PadW: 3, StrideW: 3},
		{N: 3, C: 5, H: 13, W: 13, K: 6, FH: 3, FW: 3, PadH: 1, PadW: 1},
		{N: 1, C: 1, H: 4, W: 67, K: 1, FH: 2, FW: 2, PadH: 1, PadW: 2, StrideH: 2, StrideW: 2},
	}, SmallConvCases...)
	cases = append(cases, batchFoldedConvCases...)
	cases = append(cases, inPlaceConvCases...)
	r := rand.New(rand.NewSource(61))
	for _, cfg := range cases {
		convGemmMatchesOldPath(t, r, cfg, tensor.Layouts)
	}
}

// FuzzConvGemmLayouts checks the GEMM convolution against the old path on
// arbitrary legal configurations, through all four input/output pairs of
// the two layouts: every pair takes the one lane loop.
func FuzzConvGemmLayouts(f *testing.F) {
	for i, cfg := range append(append([]ConvConfig(nil), batchFoldedConvCases...), inPlaceConvCases...) {
		cfg = cfg.WithDefaults()
		f.Add(uint8(cfg.N-1), uint8(cfg.C-1), uint8(cfg.H-1), uint8(cfg.W-1), uint8(cfg.K-1), uint8(cfg.FH-1), uint8(cfg.FW-1),
			uint8(cfg.StrideH-1), uint8(cfg.StrideW-1), uint8(cfg.PadH), uint8(cfg.PadW), int64(i))
	}
	f.Fuzz(func(t *testing.T, n, c, h, w, k, fh, fw, strideH, strideW, padH, padW uint8, seed int64) {
		cfg := ConvConfig{N: int(n%128) + 1, C: int(c%16) + 1, H: int(h%16) + 1, W: int(w%16) + 1,
			K: int(k%64) + 1, FH: int(fh%7) + 1, FW: int(fw%7) + 1,
			StrideH: int(strideH%4) + 1, StrideW: int(strideW%4) + 1, PadH: int(padH % 4), PadW: int(padW % 4)}
		if cfg.Validate() != nil || cfg.FLOPs()/2 > 1<<20 {
			t.Skip()
		}
		convGemmMatchesOldPath(t, rand.New(rand.NewSource(seed)), cfg, tensor.Layouts)
	})
}

// TestInputRowsMatchIm2col checks the table a panel read in place gets
// against the unroll it replaces: on every inPlaceConvCases shape, for each
// panel the lane loop reads in place (one run of gemmNR columns over a CHWN
// input, image by image) and each kc block, row kk of inputRows holds the bits
// of row kb+kk of im2col's panel.  Every shape has such a panel.
func TestInputRowsMatchIm2col(t *testing.T) {
	for _, cfg := range inPlaceConvCases {
		cfg = cfg.WithDefaults()
		in := tensor.Random(cfg.InputShape(), tensor.CHWN, 1)
		out := tensor.New(cfg.OutputShape(), tensor.CHWN)
		j := newConvGemmJob(in, nil, out, cfg, make([]float32, ConvGemmWorkspaceElems(cfg, tensor.CHWN)))
		if !j.inPlace || j.pw != gemmNR {
			t.Fatalf("%v: the job reads nothing in place (inPlace %v, panels of %d)", cfg, j.inPlace, j.pw)
		}
		panel := make([]float32, j.kdim*gemmNR)
		var runs [gemmNR]colRun
		var rows gemmRows
		taps := tapBlock{kb: -1}
		read := 0
		for col := 0; col+gemmNR <= j.cols; col += gemmNR {
			rs := runs[:j.cutRuns(runs[:], col, gemmNR)]
			if len(rs) != 1 {
				continue
			}
			read++
			poison(panel)
			j.im2col(panel, rs, gemmNR)
			for kb := 0; kb < j.kdim; kb += gemmKC {
				kc := min(gemmKC, j.kdim-kb)
				j.inputRows(&rows, &taps, rs[0], kb, kc)
				for kk := 0; kk < kc; kk++ {
					equalBits(t, fmt.Sprintf("%v column %d tap %d", cfg, col, kb+kk), rows[kk][:], panel[(kb+kk)*gemmNR:(kb+kk+1)*gemmNR])
				}
			}
		}
		if read == 0 {
			t.Errorf("%v: no panel is one run", cfg)
		}
	}
}

// TestConvGemmWorkspaceElems checks that the workspace is one image's unroll
// for every layout pair and batch, and that the call takes exactly that: one
// element less is rejected.
func TestConvGemmWorkspaceElems(t *testing.T) {
	cfg := ConvConfig{N: 2, C: 3, H: 8, W: 8, K: 4, FH: 3, FW: 3, PadH: 1, PadW: 1}
	unroll := cfg.ReductionLength() * cfg.OutH() * cfg.OutW()
	filters := tensor.Filters(cfg.K, cfg.C, cfg.FH, cfg.FW, 1)
	packed, err := PackConvFilters(filters, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 17} {
		cfg.N = n
		for _, inLay := range tensor.Layouts {
			in := tensor.Random(cfg.InputShape(), inLay, 2)
			for _, outLay := range tensor.Layouts {
				if got := ConvGemmWorkspaceElems(cfg, outLay); got != unroll {
					t.Errorf("ConvGemmWorkspaceElems(N=%d, %v) = %d, want %d", n, outLay, got, unroll)
				}
				out := tensor.New(cfg.OutputShape(), outLay)
				if err := ConvIm2colGemmInto(in, packed, out, cfg, make([]float32, unroll)); err != nil {
					t.Errorf("N=%d %v->%v with one image's unroll: %v", n, inLay, outLay, err)
				}
				if err := ConvIm2colGemmInto(in, packed, out, cfg, make([]float32, unroll-1)); err == nil {
					t.Errorf("N=%d %v->%v accepted a workspace one element short", n, inLay, outLay)
				}
			}
		}
	}
}

// TestConvGemmOneImageHandOff checks batch-split invariance in CHWN: a call
// of one image, whose columns run along the output row, is bit-equal to the
// same image run as a batch of two (with a second, different image beside
// it), whose columns run image by image.
func TestConvGemmOneImageHandOff(t *testing.T) {
	for _, cfg := range []ConvConfig{
		{N: 1, C: 2, H: 5, W: 9, K: 3, FH: 3, FW: 3, PadH: 1, PadW: 1},
		{N: 1, C: 16, H: 11, W: 11, K: 7, FH: 5, FW: 5, PadH: 2, PadW: 2},
		{N: 1, C: 3, H: 9, W: 10, K: gemmMR + 1, FH: 3, FW: 2, StrideW: 2, PadW: 1},
	} {
		cfg = cfg.WithDefaults()
		pair := cfg
		pair.N = 2
		filters := tensor.Filters(cfg.K, cfg.C, cfg.FH, cfg.FW, 3)
		packed, err := PackConvFilters(filters, cfg)
		if err != nil {
			t.Fatal(err)
		}
		two := tensor.Random(pair.InputShape(), tensor.CHWN, 4)
		one := tensor.New(cfg.InputShape(), tensor.CHWN)
		for i := range one.Data {
			one.Data[i] = two.Data[2*i]
		}
		outOne, outTwo := tensor.New(cfg.OutputShape(), tensor.CHWN), tensor.New(pair.OutputShape(), tensor.CHWN)
		scratch := make([]float32, ConvGemmWorkspaceElems(pair, tensor.CHWN))
		poison(scratch)
		if err := ConvIm2colGemmInto(two, packed, outTwo, pair, scratch); err != nil {
			t.Fatal(err)
		}
		scratch = scratch[:ConvGemmWorkspaceElems(cfg, tensor.CHWN)]
		poison(scratch)
		if err := ConvIm2colGemmInto(one, packed, outOne, cfg, scratch); err != nil {
			t.Fatal(err)
		}
		for i, v := range outOne.Data {
			if want := outTwo.Data[2*i]; math.Float32bits(v) != math.Float32bits(want) {
				t.Fatalf("%v: element %d = %v one image at a time, %v batch-folded", cfg, i, v, want)
			}
		}
	}
}

// TestConvIm2colGemmIntoMatchesFunctional cross-checks the allocation-free
// path against the functional reference (bit equality — they must share the
// accumulation order) and against the direct convolution (tolerance), for
// every small case in both runtime layouts and with a poisoned workspace.
func TestConvIm2colGemmIntoMatchesFunctional(t *testing.T) {
	for _, cfg := range SmallConvCases {
		filters := tensor.Filters(cfg.K, cfg.C, cfg.FH, cfg.FW, 2)
		packed, err := PackConvFilters(filters, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, inLay := range []tensor.Layout{tensor.NCHW, tensor.CHWN} {
			for _, outLay := range []tensor.Layout{tensor.NCHW, tensor.CHWN} {
				in := tensor.Random(cfg.InputShape(), inLay, 1)
				want, err := ConvIm2colGemm(in, filters, cfg, outLay)
				if err != nil {
					t.Fatalf("%v: functional: %v", cfg, err)
				}
				out := tensor.New(cfg.OutputShape(), outLay)
				poison(out.Data)
				scratch := make([]float32, ConvGemmWorkspaceElems(cfg, outLay))
				poison(scratch)
				if err := ConvIm2colGemmInto(in, packed, out, cfg, scratch); err != nil {
					t.Fatalf("%v: into: %v", cfg, err)
				}
				for i := range want.Data {
					if out.Data[i] != want.Data[i] {
						t.Fatalf("%v %v->%v: element %d = %v, want %v",
							cfg, inLay, outLay, i, out.Data[i], want.Data[i])
					}
				}
				direct, err := ConvDirect(in, filters, cfg, outLay)
				if err != nil {
					t.Fatal(err)
				}
				if !tensor.RelClose(direct, out, 1e-4, 1e-4) {
					t.Errorf("%v %v->%v: GEMM-into disagrees with direct convolution", cfg, inLay, outLay)
				}
			}
		}
	}
}

// TestConvIm2colGemmIntoValidation covers the error paths of the production
// entry point.
func TestConvIm2colGemmIntoValidation(t *testing.T) {
	cfg := ConvConfig{N: 2, C: 2, H: 6, W: 6, K: 2, FH: 3, FW: 3}
	in := tensor.Random(cfg.InputShape(), tensor.NCHW, 1)
	filters := tensor.Filters(cfg.K, cfg.C, cfg.FH, cfg.FW, 1)
	packed, err := PackConvFilters(filters, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := tensor.New(cfg.OutputShape(), tensor.NCHW)
	scratch := make([]float32, ConvGemmWorkspaceElems(cfg, tensor.NCHW))

	badIn := tensor.Random(tensor.Shape{N: 2, C: 2, H: 5, W: 6}, tensor.NCHW, 1)
	if err := ConvIm2colGemmInto(badIn, packed, out, cfg, scratch); err == nil {
		t.Error("mismatched input accepted")
	}
	badOut := tensor.New(tensor.Shape{N: 2, C: 3, H: 4, W: 4}, tensor.NCHW)
	if err := ConvIm2colGemmInto(in, packed, badOut, cfg, scratch); err == nil {
		t.Error("mismatched output accepted")
	}
	if err := ConvIm2colGemmInto(in, packed[:len(packed)-1], out, cfg, scratch); err == nil {
		t.Error("short packed filters accepted")
	}
	if err := ConvIm2colGemmInto(in, packed, out, cfg, scratch[:len(scratch)-1]); err == nil {
		t.Error("short scratch accepted")
	}
	badCfg := cfg
	badCfg.K = 0
	if err := ConvIm2colGemmInto(in, packed, out, badCfg, scratch); err == nil {
		t.Error("invalid config accepted")
	}
}

// TestConvIm2colGemmDeterministicAcrossWorkers pins the bit-stability
// contract the golden suite relies on: the same convolution computed with one,
// two and four workers must agree exactly, with the positions fastest
// (CHWN→NCHW) and with the images fastest (CHWN→CHWN, two lanes).
func TestConvIm2colGemmDeterministicAcrossWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cfg := ConvConfig{N: 3, C: 5, H: 13, W: 11, K: 7, FH: 3, FW: 3, PadH: 1, PadW: 1, StrideH: 2, StrideW: 2}
	in := tensor.Random(cfg.InputShape(), tensor.CHWN, 5)
	filters := tensor.Filters(cfg.K, cfg.C, cfg.FH, cfg.FW, 6)
	for _, outLay := range []tensor.Layout{tensor.NCHW, tensor.CHWN} {
		var serial *tensor.Tensor
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			out, err := ConvIm2colGemm(in, filters, cfg, outLay)
			if err != nil {
				t.Fatal(err)
			}
			if procs == 1 {
				serial = out
			}
			sameBits(t, fmt.Sprintf("CHWN->%v at %d workers", outLay, procs), out, serial)
		}
	}
}
