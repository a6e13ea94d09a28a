package kernels

import (
	"fmt"

	"memcnn/internal/par"
	"memcnn/internal/tensor"
)

// GEMM-based convolution: the Caffe / cuDNN implementation strategy (Section
// II.B).  The input is unrolled with im2col into a (C·FH·FW) × (N·OutH·OutW)
// matrix and the convolution becomes one SGEMM with the filter bank as the
// (K) × (C·FH·FW) left operand.  The strategy inherits matrix multiplication's
// robustness across layer shapes, but pays the unroll traffic and only reaches
// high efficiency once the merged matrix dimensions are large (Fig. 4b).
//
// The CPU path is one form for every layout pair and batch.  The whole batch
// is one K × (N·OutH·OutW) product whose columns are the output positions in
// the output's memory order, so its rows are the output's channel planes:
// with the image fastest in CHWN (cuda-convnet's batch-innermost
// arrangement, the paper's CHWN reference), with the position within the
// image fastest in NCHW.  With one image the two orders are one.

// ConvAlgorithm identifies a CPU convolution execution strategy of the
// planned runtime: the cuda-convnet style direct kernel or the Caffe/cuDNN
// style im2col+GEMM path.  internal/autotune prices them per layer shape and
// internal/runtime records the choice in the compiled op.
type ConvAlgorithm int

// The convolution algorithms.  The planned runtime selects between the first two.
const (
	// ConvAlgDirect is the direct convolution (ConvDirectInto).
	ConvAlgDirect ConvAlgorithm = iota
	// ConvAlgGemm is the im2col+GEMM convolution (ConvIm2colGemmInto).
	ConvAlgGemm
	// ConvAlgFFT is the frequency-domain convolution (ConvFFTInto), which no
	// compiled program runs.  It stays only because benchmark/work.go
	// classifies it, and goes with that kernel (ROADMAP item 4).
	ConvAlgFFT
)

// String names the algorithm.
func (a ConvAlgorithm) String() string {
	switch a {
	case ConvAlgDirect:
		return "direct"
	case ConvAlgGemm:
		return "im2col+gemm"
	case ConvAlgFFT:
		return "fft"
	default:
		return fmt.Sprintf("ConvAlgorithm(%d)", int(a))
	}
}

// PackConvFilters packs a filter bank into the left operand of the GEMM
// formulation: the K × (C·FH·FW) filter matrix in the slab format of the GEMM
// core (gemm.go), whole gemmMR-row slabs, so its length is K rounded up to a
// multiple of gemmMR times C·FH·FW.  The runtime packs each conv layer once at
// compile time; the format is private to this package, and the slice is only
// good for passing to ConvIm2colGemmInto.
func PackConvFilters(filters *tensor.Tensor, cfg ConvConfig) ([]float32, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	packed := make([]float32, gemmPackedAElems(cfg.K, cfg.ReductionLength()))
	if err := PackConvFiltersInto(packed, filters, cfg); err != nil {
		return nil, err
	}
	return packed, nil
}

// PackConvFiltersInto is PackConvFilters into a slice the caller owns (of the
// length PackConvFilters returns, contents unspecified on entry): what a layer
// uses to refresh its packed operand after a weight update.  Filters in any
// layout are accepted.  The slabs are packed in one par.Planes fan-out, one
// plane a slab.
func PackConvFiltersInto(dst []float32, filters *tensor.Tensor, cfg ConvConfig) error {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return err
	}
	if filters.Shape != cfg.FilterShape() {
		return fmt.Errorf("kernels: filter shape %v does not match config %v", filters.Shape, cfg.FilterShape())
	}
	kdim := cfg.ReductionLength()
	if len(dst) != gemmPackedAElems(cfg.K, kdim) {
		return fmt.Errorf("kernels: packed filters have %d elements, want %d", len(dst), gemmPackedAElems(cfg.K, kdim))
	}
	// An NCHW bank holds each filter's taps back to back: walk them as one row.
	j := packJob{dst: dst, f: stridesOf(filters), k: cfg.K, kdim: kdim, nc: cfg.C, nh: cfg.FH, nw: cfg.FW}
	if j.f.w == 1 && j.f.h == j.nw && j.f.c == j.nh*j.nw {
		j.nc, j.nh, j.nw = 1, 1, kdim
	}
	par.Planes(len(dst)/(gemmMR*kdim), j, packSlab)
	return nil
}

// packJob is one PackConvFiltersInto call: the packed operand, the bank, its
// K filters of kdim taps each, walked as nc × nh × nw.
type packJob struct {
	dst        []float32
	f          strided
	k, kdim    int
	nc, nh, nw int
}

// packSlab packs slab s: filters s·gemmMR to s·gemmMR+gemmMR-1, zeros past K.
func packSlab(j packJob, s int) {
	slab := j.dst[s*gemmMR*j.kdim:][:gemmMR*j.kdim]
	for i := 0; i < gemmMR; i++ {
		k, at := s*gemmMR+i, i
		if k >= j.k {
			for ; at < len(slab); at += gemmMR {
				slab[at] = 0
			}
			continue
		}
		for c := 0; c < j.nc; c++ {
			for fh := 0; fh < j.nh; fh++ {
				row := j.f.data[k*j.f.n+c*j.f.c+fh*j.f.h:]
				for fw := 0; fw < j.nw; fw++ {
					slab[at] = row[fw*j.f.w]
					at += gemmMR
				}
			}
		}
	}
}

// ConvGemmWorkspaceElems returns the scratch ConvIm2colGemmInto needs, in
// float32 elements: the unroll matrix of one image, (C·FH·FW) × (OutH·OutW),
// whatever the layouts.  The call cuts it into one panel-sized unroll slot per
// lane.
func ConvGemmWorkspaceElems(cfg ConvConfig, outLayout tensor.Layout) int {
	cfg = cfg.WithDefaults()
	return cfg.ReductionLength() * cfg.OutH() * cfg.OutW()
}

// ConvIm2colGemmInto is the allocation-free production form of the GEMM
// convolution: it unrolls the input into the caller-provided scratch (at least
// ConvGemmWorkspaceElems(cfg, out.Layout) elements, contents unspecified on
// entry), already in the packed format of the GEMM core, and multiplies it by
// the pre-packed filter operand (see PackConvFilters).  Any input and output
// layouts are accepted.  Lanes unroll and multiply gemmNR-column panels of the
// whole batch's product independently, in one fan-out (convGemmJob).  The
// accumulation order per output element is fixed by the GEMM core, so results
// are bit-identical regardless of layout, batching or worker count.
//
//memcnn:noalloc
func ConvIm2colGemmInto(in *tensor.Tensor, packed []float32, out *tensor.Tensor, cfg ConvConfig, scratch []float32) error {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return err
	}
	if in.Shape != cfg.InputShape() {
		return fmt.Errorf("kernels: conv input shape %v does not match config %v", in.Shape, cfg.InputShape())
	}
	if out.Shape != cfg.OutputShape() {
		return fmt.Errorf("kernels: conv output shape %v does not match config %v", out.Shape, cfg.OutputShape())
	}
	kdim := cfg.ReductionLength()
	if len(packed) != gemmPackedAElems(cfg.K, kdim) {
		return fmt.Errorf("kernels: packed filters have %d elements, want %d", len(packed), gemmPackedAElems(cfg.K, kdim))
	}
	need := ConvGemmWorkspaceElems(cfg, out.Layout)
	if len(scratch) < need {
		return fmt.Errorf("kernels: gemm conv scratch has %d elements, want at least %d", len(scratch), need)
	}
	j := newConvGemmJob(in, packed, out, cfg, scratch[:need])
	par.Planes(j.lanes, j, convGemmLane)
	return nil
}

// convGemmJob is one ConvIm2colGemmInto call.  The output's channel planes
// (row stride out.c) are the rows of the K × cols product, cols =
// N·OutH·OutW, its columns in the order newConvGemmJob picks.  It is computed
// in panels of pw consecutive columns: lane l owns slot l of the scratch
// (kdim × pw floats) and takes panels l, l+lanes, …, unrolling each into its
// slot and multiplying every filter slab by it into the output.  No lane
// reads what another writes, so there is one fan-out and no barrier.
//
// The workspace bounds the lanes: it holds the unroll of one image,
// OutH·OutW/gemmNR slots of full gemmNR-column panels, and cores beyond that
// idle (a worker budget handed down is where that is revisited).  When it
// holds less than one such slot (OutH·OutW < gemmNR) a single lane runs
// narrower panels.
type convGemmJob struct {
	cfg                   ConvConfig
	in, out               strided
	packed, slots         []float32
	kdim, outW, ohw, cols int
	pw, lanes             int
	// imageFastest orders the columns image by image within a position, else
	// position by position within an image.
	imageFastest bool
	// inStep and outStep are the input and output offsets from one column of
	// a run to the next.
	inStep, outStep int
	// inside bounds the output columns [PadW, inside) of a row whose window
	// lies inside the image: an image-fastest run crosses them where the
	// input and the output hold a row's images back to back (CHWN, stride-W
	// 1).  It is -1 where no run crosses a position.
	inside int
}

// newConvGemmJob sets up a call on validated operands: the images run fastest
// where the output's batch stride is 1 and there are several of them.
func newConvGemmJob(in *tensor.Tensor, packed []float32, out *tensor.Tensor, cfg ConvConfig, scratch []float32) convGemmJob {
	j := convGemmJob{cfg: cfg, in: stridesOf(in), out: stridesOf(out), packed: packed, slots: scratch,
		kdim: cfg.ReductionLength(), outW: cfg.OutW(), inside: -1}
	j.ohw = cfg.OutH() * j.outW
	j.cols = cfg.N * j.ohw
	j.imageFastest = j.out.n == 1 && cfg.N > 1
	j.inStep, j.outStep = cfg.StrideW*j.in.w, j.out.w
	if j.imageFastest {
		j.inStep, j.outStep = j.in.n, j.out.n
		if cfg.StrideW == 1 && j.in.n == 1 && j.in.w == cfg.N && j.out.w == cfg.N {
			j.inside = min(j.outW, cfg.W-cfg.FW+cfg.PadW+1)
		}
	}
	j.pw = min(gemmNR, len(scratch)/j.kdim)
	j.lanes = min(len(scratch)/(j.kdim*j.pw), ceilDiv(j.cols, j.pw))
	return j
}

// colRun is a run of consecutive columns of a product or an unroll that step
// through each tensor at one stride: len columns from column at of their
// panel, the first one image n's output position (oh, ow).
type colRun struct{ at, len, n, oh, ow int }

// convGemmLane runs one lane.  The multiplication walks the reduction in
// gemmKC blocks for a single panel over every slab.  A full micro-tile whose
// gemmNR columns are gemmNR consecutive floats of each output plane goes
// straight to the output; any other (cut by the last slab, a narrow panel,
// columns an image apart or strided) goes through a stack tile, and a narrow
// panel is widened to gemmNR zero-padded columns first.
//
//memcnn:noalloc
func convGemmLane(j convGemmJob, lane int) {
	m, k, ldc := j.cfg.K, j.kdim, j.out.c
	slot := j.slots[lane*k*j.pw : (lane+1)*k*j.pw]
	var cTile [gemmMR * gemmNR]float32
	var bTile [gemmKC * gemmNR]float32
	var runs [gemmNR]colRun
	var at [gemmNR]int // each run's output offset in plane 0
	for col := lane * j.pw; col < j.cols; col += j.lanes * j.pw {
		w := min(j.pw, j.cols-col)
		panel := slot[:k*w]
		rs := runs[:j.cutRuns(runs[:], col, w)]
		j.im2col(panel, rs, w)
		direct := w == gemmNR
		for i, r := range rs {
			at[i] = r.n*j.out.n + r.oh*j.out.h + r.ow*j.out.w
			if (j.outStep != 1 && r.len > 1) || (i > 0 && at[i] != at[i-1]+rs[i-1].len) {
				direct = false
			}
		}
		for kb := 0; kb < k; kb += gemmKC {
			kc := min(gemmKC, k-kb)
			accumulate := kb > 0
			bp := panel[kb*w : (kb+kc)*w]
			if w < gemmNR {
				for kk := 0; kk < kc; kk++ {
					wide := bTile[kk*gemmNR : (kk+1)*gemmNR]
					copy(wide, bp[kk*w:(kk+1)*w])
					clear(wide[w:])
				}
				bp = bTile[:kc*gemmNR]
			}
			for row := 0; row < m; row += gemmMR {
				ap := j.packed[row*k+kb*gemmMR : row*k+(kb+kc)*gemmMR]
				if direct && row+gemmMR <= m {
					gemmMicro(kc, ap, bp, j.out.data[row*ldc+at[0]:], ldc, accumulate)
					continue
				}
				plane, h := j.out.data[row*ldc:], min(gemmMR, m-row)
				if accumulate {
					moveTile(&cTile, plane, ldc, j.outStep, h, rs, at[:len(rs)], false)
				}
				gemmMicro(kc, ap, bp, cTile[:], gemmNR, accumulate)
				moveTile(&cTile, plane, ldc, j.outStep, h, rs, at[:len(rs)], true)
			}
		}
	}
}

// moveTile copies the first h rows of tile between it and h planes of a
// tensor: row r is the plane at data[r*plane:], and run i's columns, from
// tile column run.at, are that plane's elements at[i], at[i]+step, … (run.len
// of them); a run whose at[i] is negative is skipped.  It copies into the
// tile when back is false, out of it when true.
func moveTile(tile *[gemmMR * gemmNR]float32, data []float32, plane, step, h int, runs []colRun, at []int, back bool) {
	for r := 0; r < h; r++ {
		for i, run := range runs {
			if at[i] < 0 {
				continue
			}
			row, from := tile[r*gemmNR+run.at:r*gemmNR+run.at+run.len], r*plane+at[i]
			switch {
			case step == 1 && back:
				copy(data[from:], row)
			case step == 1:
				copy(row, data[from:])
			case back:
				for x := range row {
					data[from+x*step] = row[x]
				}
			default:
				for x := range row {
					row[x] = data[from+x*step]
				}
			}
		}
	}
}
