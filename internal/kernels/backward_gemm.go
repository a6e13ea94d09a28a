package kernels

import (
	"fmt"
	"math"

	"memcnn/internal/par"
	"memcnn/internal/tensor"
)

// The two convolution gradients, whichever algorithm the forward runs: the
// im2col view of the forward pass (conv_gemm.go) turned around and run through
// the same packed core (gemm.go).  With col(X_n) the (C·FH·FW) × (OutH·OutW)
// unroll of image n:
//
//   - the data gradient is col(dX_n) = Wᵀ · dY_n, added back onto the input
//     positions each column was unrolled from (col2im, a scatter-add that
//     covers every stride and pad);
//   - the filter gradient is dW = Σ_n dY_n · col(X_n)ᵀ.
//
// Neither product is ever materialised whole.  A lane multiplies one
// gemmNR-wide panel at a time, from operands it packs into its own slot of the
// workspace, and owns every element it writes: the data gradient's lanes own
// images, the filter gradient's own panels of filter taps.  Every element is
// therefore one chain of float32 multiply-then-add steps in a fixed order, so
// results are bit-identical for any worker count.

const (
	// gemmGradLanes is the most lanes a GEMM gradient call splits into; its
	// workspace holds one slot per lane, and only the slots of lanes that run
	// (par.Workers) are touched.
	gemmGradLanes = 8
	// gemmGradKC is how many output positions the filter gradient reduces
	// over per packed block: half of gemmKC keeps a lane's slot, and so the
	// planned workspace, under half of one image's unroll on LeNet's layers.
	gemmGradKC = gemmKC / 2
)

// flushSubnormal reads a subnormal float32 as zero, the x86 DAZ rule, applied
// to the output gradient as the GEMM gradients pack it.  A saturated softmax
// sends subnormal gradients down the network, and every float32 multiply or
// add the micro-kernel runs on one takes a microcode assist: on a 2-vCPU Xeon,
// LeNet@16's backward-data went from 2.8 to 14 ms on steps with 1849 of them.
func flushSubnormal(v float32) float32 {
	if math.Float32bits(v)&0x7f800000 == 0 {
		return 0
	}
	return v
}

// ConvGemmBackwardDataWorkspaceElems returns the scratch
// ConvGemmBackwardDataInto needs, in float32 elements: the filter bank packed
// as the transposed left operand, then one K × gemmNR output-gradient panel per
// lane.
func ConvGemmBackwardDataWorkspaceElems(cfg ConvConfig) int {
	cfg = cfg.WithDefaults()
	return gemmPackedAElems(cfg.ReductionLength(), cfg.K) + min(cfg.N, gemmGradLanes)*cfg.K*gemmNR
}

// ConvGemmBackwardDataInto computes the gradient of the convolution with
// respect to its input, dIn[n][c][ih][iw] = sum over (k, fh, fw) hitting
// (ih, iw) of dOut[n][k][oh][ow] * filter[k][c][fh][fw], into dIn (any layout,
// fully overwritten) from dOut and the filter bank (any layouts), with scratch
// of at least ConvGemmBackwardDataWorkspaceElems(cfg) elements.  Lane l takes
// images l, l+lanes, …: it zeroes each one's gradient, then for every panel of
// output positions multiplies Wᵀ by the panel of dOut slab by slab and adds
// the product tile onto the input positions its taps read.  A subnormal dOut
// value is read as zero (flushSubnormal).
//
//memcnn:noalloc
func ConvGemmBackwardDataInto(dOut, filters, dIn *tensor.Tensor, cfg ConvConfig, scratch []float32) error {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return err
	}
	if dOut.Shape != cfg.OutputShape() {
		return fmt.Errorf("kernels: backward-data dOut shape %v does not match config %v", dOut.Shape, cfg.OutputShape())
	}
	if filters.Shape != cfg.FilterShape() {
		return fmt.Errorf("kernels: filter shape %v does not match config %v", filters.Shape, cfg.FilterShape())
	}
	if dIn.Shape != cfg.InputShape() {
		return fmt.Errorf("kernels: backward-data dIn shape %v does not match config %v", dIn.Shape, cfg.InputShape())
	}
	need := ConvGemmBackwardDataWorkspaceElems(cfg)
	if len(scratch) < need {
		return fmt.Errorf("kernels: gemm backward-data scratch has %d elements, want at least %d", len(scratch), need)
	}
	kdim := cfg.ReductionLength()
	wt := scratch[:gemmPackedAElems(kdim, cfg.K)]
	packTransposedFilters(wt, stridesOf(filters), cfg)
	j := gemmDataJob{cfg: cfg, dOut: stridesOf(dOut), dIn: stridesOf(dIn), wt: wt, slots: scratch[len(wt):need],
		kdim: kdim, lanes: par.Workers(min(cfg.N, gemmGradLanes))}
	par.Planes(j.lanes, j, gemmDataLane)
	return nil
}

// packTransposedFilters writes the filter bank as the slab-packed left
// operand Wᵀ: C·FH·FW rows (filter taps) by K (the reduction), its last slab
// zero-padded.
func packTransposedFilters(dst []float32, f strided, cfg ConvConfig) {
	taps := cfg.FH * cfg.FW
	kdim := cfg.C * taps
	for t := 0; t < len(dst)/cfg.K; t++ {
		slab := dst[t/gemmMR*gemmMR*cfg.K:]
		at := t % gemmMR
		if t >= kdim {
			for k := 0; k < cfg.K; k++ {
				slab[at+k*gemmMR] = 0
			}
			continue
		}
		src := f.data[t/taps*f.c+t%taps/cfg.FW*f.h+t%cfg.FW*f.w:]
		for k := 0; k < cfg.K; k++ {
			slab[at+k*gemmMR] = src[k*f.n]
		}
	}
}

// gemmDataJob is one ConvGemmBackwardDataInto call: wt is the packed Wᵀ every
// lane reads, slots one K × gemmNR panel per lane.
type gemmDataJob struct {
	cfg         ConvConfig
	dOut, dIn   strided
	wt, slots   []float32
	kdim, lanes int
}

// gemmDataLane computes the input gradient of every lanes-th image.  A panel
// is up to gemmNR output positions of one output row, so each of its taps
// reads one strided run of one input row.
//
//memcnn:noalloc
func gemmDataLane(j gemmDataJob, lane int) {
	cfg, d := &j.cfg, &j.dIn
	k := cfg.K
	panel := j.slots[lane*k*gemmNR : (lane+1)*k*gemmNR]
	var cTile [gemmMR * gemmNR]float32
	for n := lane; n < cfg.N; n += j.lanes {
		for c := 0; c < cfg.C; c++ {
			for ih := 0; ih < cfg.H; ih++ {
				row := d.data[n*d.n+c*d.c+ih*d.h:]
				for iw := 0; iw < cfg.W; iw++ {
					row[iw*d.w] = 0
				}
			}
		}
		for oh := 0; oh < cfg.OutH(); oh++ {
			for ow := 0; ow < cfg.OutW(); ow += gemmNR {
				w := min(gemmNR, cfg.OutW()-ow)
				j.gatherPanel(panel, n, oh, ow, w)
				for row := 0; row < j.kdim; row += gemmMR {
					for kb := 0; kb < k; kb += gemmKC {
						kc := min(gemmKC, k-kb)
						gemmMicro(kc, j.wt[row*k+kb*gemmMR:row*k+(kb+kc)*gemmMR], panel[kb*gemmNR:(kb+kc)*gemmNR], cTile[:], gemmNR, kb > 0)
					}
					j.col2imAdd(&cTile, n, row, min(gemmMR, j.kdim-row), oh, ow, w)
				}
			}
		}
	}
}

// gatherPanel copies output positions [ow, ow+w) of output row oh of image
// n's gradient, all K filters, into panel in the packed right-operand format
// at the full gemmNR width, the columns past w zeroed.
func (j *gemmDataJob) gatherPanel(panel []float32, n, oh, ow, w int) {
	d := &j.dOut
	src := d.data[n*d.n+oh*d.h+ow*d.w:]
	for k := 0; k < j.cfg.K; k++ {
		dst, s := panel[k*gemmNR:(k+1)*gemmNR], src[k*d.c:]
		for i := range dst[:w] {
			dst[i] = flushSubnormal(s[i*d.w])
		}
		clear(dst[w:])
	}
}

// col2imAdd adds rows [row, row+h) of a product tile — filter taps of the
// unroll — over columns [0, w) — output positions (oh, ow), (oh, ow+1), … —
// onto image n of the input gradient, at the positions im2colPanel reads
// those taps from.  Tap by tap, each element receives its adds in a fixed
// order.
func (j *gemmDataJob) col2imAdd(tile *[gemmMR * gemmNR]float32, n, row, h, oh, ow, w int) {
	cfg, d := &j.cfg, &j.dIn
	taps := cfg.FH * cfg.FW
	step := cfg.StrideW * d.w
	for r := 0; r < h; r++ {
		t := row + r
		c, fh, fw := t/taps, t%taps/cfg.FW, t%cfg.FW
		ih := oh*cfg.StrideH - cfg.PadH + fh
		if ih < 0 || ih >= cfg.H {
			continue
		}
		lo, hi := tapRange(fw, cfg.StrideW, cfg.PadW, 0, cfg.W, ow, ow+w)
		if lo >= hi {
			continue
		}
		dst := d.data[n*d.n+c*d.c+ih*d.h+(lo*cfg.StrideW-cfg.PadW+fw)*d.w:]
		for i, v := range tile[r*gemmNR+lo-ow : r*gemmNR+hi-ow] {
			dst[i*step] += v
		}
	}
}

// ConvGemmBackwardFilterWorkspaceElems returns the scratch
// ConvGemmBackwardFilterInto needs, in float32 elements: per lane, a block of
// output positions (gradBlock) of the output gradient packed as the left
// operand and the matching block of one unrolled tap panel.
func ConvGemmBackwardFilterWorkspaceElems(cfg ConvConfig) int {
	cfg = cfg.WithDefaults()
	rows, cols := gradBlock(cfg)
	lanes := min(ceilDiv(cfg.ReductionLength(), gemmNR), gemmGradLanes)
	return lanes * (gemmPackedAElems(cfg.K, rows*cols) + rows*cols*gemmNR)
}

// gradBlock returns the shape of the blocks of output positions the filter
// gradient reduces over at once, at most gemmGradKC of them: as many whole
// output rows as fit, or one row cut into gemmGradKC-wide pieces when a row
// does not fit.
func gradBlock(cfg ConvConfig) (rows, cols int) {
	if outW := cfg.OutW(); outW <= gemmGradKC {
		return min(gemmGradKC/outW, cfg.OutH()), outW
	}
	return 1, gemmGradKC
}

// ConvGemmBackwardFilterInto computes the gradient of the convolution with
// respect to its filter bank, dW[k][c][fh][fw] = sum over (n, oh, ow) of
// dOut[n][k][oh][ow] * in[n][c][oh*S+fh-pad][ow*S+fw-pad], into dW (NCHW: the
// row-major K × C·FH·FW matrix the product fills in place; fully overwritten)
// from in and dOut (any layouts), with scratch of at least
// ConvGemmBackwardFilterWorkspaceElems(cfg) elements.  The gemmNR-wide panels of filter taps are split between the lanes
// in contiguous runs.  A lane walks the whole reduction, image by image and
// block by block of output positions: it packs the block of dOut once and, for
// each of its panels, unrolls the block of input straight into the packed
// format and accumulates the product into dW.  A subnormal dOut value is read
// as zero (flushSubnormal).
//
//memcnn:noalloc
func ConvGemmBackwardFilterInto(in, dOut, dW *tensor.Tensor, cfg ConvConfig, scratch []float32) error {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return err
	}
	if in.Shape != cfg.InputShape() {
		return fmt.Errorf("kernels: backward-filter input shape %v does not match config %v", in.Shape, cfg.InputShape())
	}
	if dOut.Shape != cfg.OutputShape() {
		return fmt.Errorf("kernels: backward-filter dOut shape %v does not match config %v", dOut.Shape, cfg.OutputShape())
	}
	if dW.Shape != cfg.FilterShape() || dW.Layout != tensor.NCHW {
		return fmt.Errorf("kernels: gemm backward-filter dW is %v %v, want %v NCHW", dW.Shape, dW.Layout, cfg.FilterShape())
	}
	need := ConvGemmBackwardFilterWorkspaceElems(cfg)
	if len(scratch) < need {
		return fmt.Errorf("kernels: gemm backward-filter scratch has %d elements, want at least %d", len(scratch), need)
	}
	j := gemmFilterJob{cfg: cfg, in: stridesOf(in), dOut: stridesOf(dOut), dW: dW.Data, kdim: cfg.ReductionLength()}
	j.rows, j.cols = gradBlock(cfg)
	j.panels = ceilDiv(j.kdim, gemmNR)
	j.lanes = par.Workers(min(j.panels, gemmGradLanes))
	j.slot = need / min(j.panels, gemmGradLanes)
	j.slots = scratch[:need]
	par.Planes(j.lanes, j, gemmFilterLane)
	return nil
}

// gemmFilterJob is one ConvGemmBackwardFilterInto call: lane l owns panels
// [l·panels/lanes, (l+1)·panels/lanes) and slot l of slots; blocks are at most
// rows × cols output positions.
type gemmFilterJob struct {
	cfg                 ConvConfig
	in, dOut            strided
	dW, slots           []float32
	kdim, rows, cols    int
	panels, lanes, slot int
}

// gemmFilterLane accumulates the filter gradient over the lane's tap panels.
// A micro-tile cut by the last slab or a narrow panel goes through a stack
// tile, as in gemmTile.
//
//memcnn:noalloc
func gemmFilterLane(j gemmFilterJob, lane int) {
	cfg := &j.cfg
	m, k := cfg.K, j.kdim
	slot := j.slots[lane*j.slot : (lane+1)*j.slot]
	aElems := gemmPackedAElems(m, j.rows*j.cols)
	var cTile [gemmMR * gemmNR]float32
	accumulate := false
	for n := 0; n < cfg.N; n++ {
		for oh := 0; oh < cfg.OutH(); oh += j.rows {
			for ow := 0; ow < cfg.OutW(); ow += j.cols {
				rows, cols := min(j.rows, cfg.OutH()-oh), min(j.cols, cfg.OutW()-ow)
				kc := rows * cols
				ap, bp := slot[:gemmPackedAElems(m, kc)], slot[aElems:aElems+kc*gemmNR]
				j.packGradBlock(ap, n, oh, ow, rows, cols)
				for p := lane * j.panels / j.lanes; p < (lane+1)*j.panels/j.lanes; p++ {
					col := p * gemmNR
					w := min(gemmNR, k-col)
					j.unrollBlock(bp, n, oh, ow, rows, cols, col, w)
					for row := 0; row < m; row += gemmMR {
						h := min(gemmMR, m-row)
						a := ap[row*kc : (row+gemmMR)*kc]
						if h == gemmMR && w == gemmNR {
							gemmMicro(kc, a, bp, j.dW[row*k+col:], k, accumulate)
							continue
						}
						if accumulate {
							for r := 0; r < h; r++ {
								copy(cTile[r*gemmNR:r*gemmNR+w], j.dW[(row+r)*k+col:])
							}
						}
						gemmMicro(kc, a, bp, cTile[:], gemmNR, accumulate)
						for r := 0; r < h; r++ {
							copy(j.dW[(row+r)*k+col:(row+r)*k+col+w], cTile[r*gemmNR:])
						}
					}
				}
				accumulate = true
			}
		}
	}
}

// packGradBlock packs the block of output positions rows [oh, oh+rows) ×
// columns [ow, ow+cols) of image n's gradient, all K filters, into ap in the
// slab format of the left operand (the block's positions, row-major, are the
// reduction), the last slab zero-padded.
func (j *gemmFilterJob) packGradBlock(ap []float32, n, oh, ow, rows, cols int) {
	d := &j.dOut
	kc := rows * cols
	for k := 0; k < len(ap)/kc; k++ {
		slab := ap[k/gemmMR*gemmMR*kc+k%gemmMR:]
		if k >= j.cfg.K {
			for i := 0; i < kc; i++ {
				slab[i*gemmMR] = 0
			}
			continue
		}
		for y := 0; y < rows; y++ {
			src, dst := d.data[n*d.n+k*d.c+(oh+y)*d.h+ow*d.w:], slab[y*cols*gemmMR:]
			for x := 0; x < cols; x++ {
				dst[x*gemmMR] = flushSubnormal(src[x*d.w])
			}
		}
	}
}

// unrollBlock writes the block's rows of col(X_n)ᵀ — one per output position,
// row-major over rows [oh, oh+rows) × columns [ow, ow+cols) — restricted to
// taps [col, col+w), into bp in the packed right-operand format at the full
// gemmNR width: each holds the input value every tap reads at that position,
// zero where it falls in the padding, and zero past w.  A tap's in-range
// output columns are the same in every row of the block, so it works them out
// once; in a row they are one strided copy.
func (j *gemmFilterJob) unrollBlock(bp []float32, n, oh, ow, rows, cols, col, w int) {
	cfg, in := &j.cfg, &j.in
	taps := cfg.FH * cfg.FW
	for t := 0; t < gemmNR; t++ {
		dst := bp[t:] // position i's tap t is dst[i*gemmNR]
		if t >= w {
			for i := 0; i < rows*cols; i++ {
				dst[i*gemmNR] = 0
			}
			continue
		}
		c, fh, fw := (col+t)/taps, (col+t)%taps/cfg.FW, (col+t)%cfg.FW
		lo, hi := cols, cols // block columns whose tap is in range: none yet
		if l, h := tapRange(fw, cfg.StrideW, cfg.PadW, 0, cfg.W, ow, ow+cols); l < h {
			lo, hi = l-ow, h-ow
		}
		for y := 0; y < rows; y++ {
			row := dst[y*cols*gemmNR:]
			a, b := lo, hi
			ih := (oh+y)*cfg.StrideH - cfg.PadH + fh
			if ih < 0 || ih >= cfg.H {
				a, b = cols, cols
			}
			for x := 0; x < a; x++ {
				row[x*gemmNR] = 0
			}
			if a < b {
				src := in.data[n*in.n+c*in.c+ih*in.h+((ow+a)*cfg.StrideW-cfg.PadW+fw)*in.w:]
				for x := a; x < b; x++ {
					row[x*gemmNR] = src[(x-a)*cfg.StrideW*in.w]
				}
			}
			for x := b; x < cols; x++ {
				row[x*gemmNR] = 0
			}
		}
	}
}
