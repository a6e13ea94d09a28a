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
// The CPU path has two forms, chosen by the layouts of the tensors it is
// handed.  The per-image form serves NCHW, where an image's K × (OutH·OutW)
// product is a contiguous block of the output and its unroll rows are runs
// along W, and is the general path for NHWC, HWCN and mixed input/output
// pairs, which it reaches through strides.  The batch-folded form serves
// CHWN on both sides, where the batch is the unit-stride axis: the output
// itself is the row-major K × (OutH·OutW·N) product, so the whole batch is one
// GEMM whose column panels are runs of consecutive images (cuda-convnet's
// batch-innermost arrangement, the paper's CHWN reference).

// ConvAlgorithm identifies a CPU convolution execution strategy of the
// planned runtime: the cuda-convnet style direct kernel, the Caffe/cuDNN
// style im2col+GEMM path, or the cuDNN v4 style frequency-domain FFT path.
// internal/autotune selects between them per layer shape and
// internal/runtime records the choice in the compiled op.
type ConvAlgorithm int

// The convolution algorithms the planned runtime selects between.
const (
	// ConvAlgDirect is the direct convolution (ConvDirectInto).
	ConvAlgDirect ConvAlgorithm = iota
	// ConvAlgGemm is the im2col+GEMM convolution (ConvIm2colGemmInto).
	ConvAlgGemm
	// ConvAlgFFT is the frequency-domain convolution (ConvFFTInto).
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
// layout are accepted.
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
	if pad := cfg.K % gemmMR; pad != 0 {
		last := dst[len(dst)-gemmMR*kdim:]
		for i := range last {
			last[i] = 0
		}
	}
	f := stridesOf(filters)
	for k := 0; k < cfg.K; k++ {
		slab := dst[k/gemmMR*gemmMR*kdim:]
		at := k % gemmMR
		for c := 0; c < cfg.C; c++ {
			for fh := 0; fh < cfg.FH; fh++ {
				row := f.data[k*f.n+c*f.c+fh*f.h:]
				for fw := 0; fw < cfg.FW; fw++ {
					slab[at] = row[fw*f.w]
					at += gemmMR
				}
			}
		}
	}
	return nil
}

// ConvGemmWorkspaceElems returns the scratch ConvIm2colGemmInto needs for a
// layer whose input and output are both in outLayout, in float32 elements:
// the single-image unroll matrix (im2colPanel writes it already panel-packed,
// in the same space), plus a product staging area where the product cannot be
// written in place.  The per-image form writes each image's K×OutH×OutW block
// straight into an NCHW output, and into a CHWN one of a single image, which
// is the same memory; the batch-folded form (CHWN, more than one image)
// writes the whole batch's product in place and cuts the same space into one
// panel-sized unroll slot per lane; NHWC and HWCN outputs stage.  The one
// mixed pair that stages where its output layout does not is a non-CHWN input
// into a CHWN output of several images; no layer runs it (a layer's input and
// output share a layout), and convGemmScratchElems sizes it.
func ConvGemmWorkspaceElems(cfg ConvConfig, outLayout tensor.Layout) int {
	return convGemmScratchElems(cfg, outLayout, outLayout)
}

// convGemmScratchElems is the scratch of the form ConvIm2colGemmInto takes for
// an input in inLayout and an output in outLayout: the unroll, plus K×OutH×OutW
// when the per-image form has to stage its product.
func convGemmScratchElems(cfg ConvConfig, inLayout, outLayout tensor.Layout) int {
	cfg = cfg.WithDefaults()
	ohw := cfg.OutH() * cfg.OutW()
	elems := cfg.ReductionLength() * ohw
	if !convGemmBatchFolded(cfg, inLayout, outLayout) && !convGemmWritesInPlace(cfg, outLayout) {
		elems += cfg.K * ohw
	}
	return elems
}

// convGemmBatchFolded reports whether ConvIm2colGemmInto takes the
// batch-folded form: CHWN on both sides and more than one image.  With one
// image CHWN is NCHW's memory, and the per-image form writes it in place.
func convGemmBatchFolded(cfg ConvConfig, inLayout, outLayout tensor.Layout) bool {
	return inLayout == tensor.CHWN && outLayout == tensor.CHWN && cfg.N > 1
}

// convGemmWritesInPlace reports whether the per-image form multiplies straight
// into the output: an image's K × (OutH·OutW) product is a contiguous
// row-major block of it.
func convGemmWritesInPlace(cfg ConvConfig, outLayout tensor.Layout) bool {
	return outLayout == tensor.NCHW || (outLayout == tensor.CHWN && cfg.N == 1)
}

// ConvIm2colGemmInto is the allocation-free production form of the GEMM
// convolution: it unrolls the input into the caller-provided scratch (at least
// ConvGemmWorkspaceElems(cfg, out.Layout) elements when the input is in the
// same layout, contents unspecified on entry), already in the packed format of
// the GEMM core, and multiplies it by the pre-packed filter operand (see
// PackConvFilters).  Any input and output layouts are accepted.  A CHWN input
// with a CHWN output of more than one image takes the batch-folded form:
// lanes unroll and multiply gemmNR-column panels of the whole batch's product
// independently, in one fan-out.  Every other pair takes the per-image form:
// the images take turns in the scratch, each unrolled, multiplied and (unless
// the product lands in place, see ConvGemmWorkspaceElems) scattered in steps
// that meet at a barrier.  The accumulation order per output element is fixed
// by the GEMM core, so results are bit-identical regardless of layout, form,
// batching or worker count.
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
	need := convGemmScratchElems(cfg, in.Layout, out.Layout)
	if len(scratch) < need {
		return fmt.Errorf("kernels: gemm conv scratch has %d elements, want at least %d", len(scratch), need)
	}
	if convGemmBatchFolded(cfg, in.Layout, out.Layout) {
		convGemmBatched(in, packed, out, cfg, scratch[:need])
		return nil
	}
	j := convGemmJob{cfg: cfg, in: stridesOf(in), out: stridesOf(out), packed: packed, kdim: kdim, outW: cfg.OutW()}
	j.ohw = cfg.OutH() * j.outW
	j.unroll = scratch[:kdim*j.ohw]
	if !convGemmWritesInPlace(cfg, out.Layout) {
		j.prod = scratch[kdim*j.ohw : kdim*j.ohw+cfg.K*j.ohw]
	}
	par.Steps(cfg.N*j.stepsPerImage(), j, convGemmPlanes, convGemmPlane)
	return nil
}

// convGemmJob is one ConvIm2colGemmInto call.  The images take turns in the
// one-image scratch, each in two or three steps: unroll it panel by panel;
// multiply the packed filters by the panels tile by tile, straight into the
// output where an image's block is in place or else into the prod staging
// area; and from there scatter the K × (OutH·OutW) product into the output
// layout, one filter a plane.
type convGemmJob struct {
	cfg                  ConvConfig
	in, out              strided
	packed, unroll, prod []float32 // prod is nil when the product lands in place
	kdim, outW, ohw      int
}

func (j convGemmJob) stepsPerImage() int {
	if j.prod == nil {
		return 2
	}
	return 3
}

// product returns where image n's K × (OutH·OutW) product is computed.
func (j convGemmJob) product(n int) gemmJob {
	dst := j.prod
	if dst == nil {
		dst = j.out.data[n*j.cfg.K*j.ohw : (n+1)*j.cfg.K*j.ohw]
	}
	return newGemmJob(j.packed, j.unroll, dst, j.cfg.K, j.ohw, j.kdim)
}

func convGemmPlanes(j convGemmJob, step int) int {
	switch step % j.stepsPerImage() {
	case 0:
		return ceilDiv(j.ohw, gemmNR)
	case 1:
		return j.product(0).tiles()
	default:
		return j.cfg.K
	}
}

func convGemmPlane(j convGemmJob, step, p int) {
	n := step / j.stepsPerImage()
	switch step % j.stepsPerImage() {
	case 0:
		im2colPanel(&j, n, p)
	case 1:
		gemmTile(j.product(n), p)
	default:
		row := j.prod[p*j.ohw : (p+1)*j.ohw]
		for oh := 0; oh*j.outW < len(row); oh++ {
			dst := j.out.data[n*j.out.n+p*j.out.c+oh*j.out.h:]
			for ow, v := range row[oh*j.outW : (oh+1)*j.outW] {
				dst[ow*j.out.w] = v
			}
		}
	}
}

// convGemmBatch is one batch-folded ConvIm2colGemmInto call (CHWN in, CHWN
// out).  The output storage is the row-major K × cols product, cols =
// OutH·OutW·N, column j being output pixel j/N of image j%N.  It is computed in
// panels of pw consecutive columns: lane l owns slot l of the scratch (kdim ×
// pw floats) and takes panels l, l+lanes, …, unrolling each into its slot and
// multiplying every filter slab by it straight into the output.  No lane reads
// what another writes, so there is one fan-out and no barrier.
//
// The workspace bounds the lanes: ConvGemmWorkspaceElems holds the unroll of
// one image, OutH·OutW/gemmNR slots of full gemmNR-column panels, and cores
// beyond that idle (a worker budget handed down is where that is
// revisited).  When it holds less than one such slot (OutH·OutW < gemmNR) a
// single lane runs narrower panels.
type convGemmBatch struct {
	cfg                ConvConfig
	in                 strided
	packed, out, slots []float32
	kdim, outW, cols   int
	pw, lanes          int
}

func convGemmBatched(in *tensor.Tensor, packed []float32, out *tensor.Tensor, cfg ConvConfig, scratch []float32) {
	j := convGemmBatch{cfg: cfg, in: stridesOf(in), packed: packed, out: out.Data, slots: scratch,
		kdim: cfg.ReductionLength(), outW: cfg.OutW()}
	j.cols = cfg.OutH() * j.outW * cfg.N
	j.pw = min(gemmNR, len(scratch)/j.kdim)
	j.lanes = min(len(scratch)/(j.kdim*j.pw), ceilDiv(j.cols, j.pw))
	par.Planes(j.lanes, j, convGemmLane)
}

// convGemmLane runs one lane of a batch-folded call.  The multiplication is
// gemmTile's for a single panel over every slab, with C's row stride the
// product's width rather than the panel's: full micro-tiles go straight to the
// output, one cut by the last slab or a narrow panel through a stack tile, and
// a narrow panel is widened to gemmNR zero-padded columns first.
//
//memcnn:noalloc
func convGemmLane(j convGemmBatch, lane int) {
	m, k, ldc := j.cfg.K, j.kdim, j.cols
	slot := j.slots[lane*k*j.pw : (lane+1)*k*j.pw]
	var cTile [gemmMR * gemmNR]float32
	var bTile [gemmKC * gemmNR]float32
	for col := lane * j.pw; col < ldc; col += j.lanes * j.pw {
		w := min(j.pw, ldc-col)
		panel := slot[:k*w]
		im2colBatchPanel(&j, panel, col, w)
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
				h := min(gemmMR, m-row)
				ap := j.packed[row*k+kb*gemmMR : row*k+(kb+kc)*gemmMR]
				if h == gemmMR && w == gemmNR {
					gemmMicro(kc, ap, bp, j.out[row*ldc+col:], ldc, accumulate)
					continue
				}
				if accumulate {
					for r := 0; r < h; r++ {
						copy(cTile[r*gemmNR:r*gemmNR+w], j.out[(row+r)*ldc+col:])
					}
				}
				gemmMicro(kc, ap, bp, cTile[:], gemmNR, accumulate)
				for r := 0; r < h; r++ {
					copy(j.out[(row+r)*ldc+col:(row+r)*ldc+col+w], cTile[r*gemmNR:])
				}
			}
		}
	}
}
