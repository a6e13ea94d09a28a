package kernels

import (
	"fmt"
	"math"

	"memcnn/internal/par"
	"memcnn/internal/tensor"
)

// The two convolution gradients, whichever algorithm the forward runs: the
// im2col view of the forward pass (conv_gemm.go) turned around and run through
// the same packed core (gemm.go), batch-folded like the CHWN forward.  With
// col(X) the (C·FH·FW) × (OutH·OutW·N) unroll of the batch, its columns
// (output position, image) with the image fastest:
//
//   - the data gradient is col(dX) = Wᵀ · dY, added back onto the input
//     positions each column was unrolled from (col2im, a scatter-add that
//     covers every stride and pad).  Its rows are taken one filter tap
//     (fh, fw) and gemmMR input channels at a time, so a product tile's rows
//     land gemmMR channel planes apart: the micro-kernel adds it onto dX in
//     place wherever the tile's columns are consecutive floats of dX (CHWN),
//     and through a stack tile elsewhere;
//   - the filter gradient is dW = dY · col(X)ᵀ.
//
// Neither product is ever materialised whole.  A lane multiplies one
// gemmNR-wide panel at a time, from operands it packs into its own slot of the
// workspace, and owns every element it writes: the data gradient's lanes own
// slabs of gemmMR input channels, the filter gradient's own panels of filter
// taps.  Both read every tensor through its strides, so one form serves every
// layout: in CHWN the images of one output position are consecutive floats, in
// NCHW they are an image apart, and with one image the two are one memory.
//
// Each element has one reduction order, set by the configuration alone:
//
//   - a filter-gradient element sums its N·OutH·OutW products in column
//     order, position by position and image by image within a position, one
//     float32 fused multiply-add a step (the core's contract, gemm.go);
//   - an input-gradient element starts at zero and takes one float32 fused
//     multiply-add per (output position, filter tap, filter) that reaches
//     it: the columns cut into gemmNR-wide panels, panel by panel, tap by tap
//     in (fh, fw) order within a panel, filter by filter within a tap.
//
// So the results are bit-identical in every layout and for any worker count.

const (
	// gemmGradLanes is the most lanes a GEMM gradient call splits into; its
	// workspace holds one slot per lane, and only the slots of lanes that run
	// (par.Workers) are touched.
	gemmGradLanes = 8
	// gemmGradDataLanes is the most lanes the data gradient splits into: its
	// packed Wᵀ pads the channels of every tap to whole slabs, and four
	// slots keep LeNet's and Cifar10's workspace within the K × gemmNR panel
	// per image, up to eight, that the per-image form took.
	gemmGradDataLanes = 4
	// gemmGradKC bounds how many columns the filter gradient reduces over per
	// packed block: half of gemmKC keeps a lane's slot, and so the planned
	// workspace, under half of one image's unroll on LeNet's layers.
	gemmGradKC = gemmKC / 2
)

// flushSubnormal reads a subnormal float32 as zero, the x86 DAZ rule, applied
// to the output gradient as the GEMM gradients pack it.  A saturated softmax
// sends subnormal gradients down the network, and every multiply-add the
// micro-kernel runs on one takes a microcode assist: on a 2-vCPU Xeon,
// LeNet@16's backward-data went from 2.8 to 14 ms on steps with 1849 of them.
func flushSubnormal(v float32) float32 {
	if math.Float32bits(v)&0x7f800000 == 0 {
		return 0
	}
	return v
}

// gradRuns cuts columns [col, col+w) of the unroll into runs of the images of
// one output position, and returns how many it wrote into runs (w of them at
// most).
func gradRuns(runs []colRun, cfg *ConvConfig, col, w int) int {
	outW, r := cfg.OutW(), 0
	for at := 0; at < w; r++ {
		pos, n := (col+at)/cfg.N, (col+at)%cfg.N
		runs[r] = colRun{at: at, len: min(cfg.N-n, w-at), n: n, oh: pos / outW, ow: pos % outW}
		at += runs[r].len
	}
	return r
}

// gradDataSlabs returns how many slabs of gemmMR input channels the data
// gradient's packed Wᵀ holds per filter tap.
func gradDataSlabs(cfg ConvConfig) int { return ceilDiv(cfg.C, gemmMR) }

// ConvGemmBackwardDataWorkspaceElems returns the scratch
// ConvGemmBackwardDataInto needs, in float32 elements: the filter bank packed
// as the transposed left operand, every tap's channels in whole slabs, then
// one K × gemmNR output-gradient panel per lane.
func ConvGemmBackwardDataWorkspaceElems(cfg ConvConfig) int {
	cfg = cfg.WithDefaults()
	slabs := gradDataSlabs(cfg)
	return cfg.FH*cfg.FW*slabs*gemmMR*cfg.K + min(slabs, gemmGradDataLanes)*cfg.K*gemmNR
}

// ConvGemmBackwardDataInto computes the gradient of the convolution with
// respect to its input, dIn[n][c][ih][iw] = sum over (k, fh, fw) hitting
// (ih, iw) of dOut[n][k][oh][ow] * filter[k][c][fh][fw], into dIn (any layout,
// fully overwritten) from dOut and the filter bank (any layouts), with scratch
// of at least ConvGemmBackwardDataWorkspaceElems(cfg) elements.  The slabs of
// input channels are split between the lanes in contiguous runs.  A lane
// zeroes its channels' gradient, then for every gemmNR-wide panel of columns
// packs the panel of dOut and, tap by tap, multiplies each of its slabs of
// Wᵀ by it, adding the product onto the input positions the tap reads.  A
// subnormal dOut value is read as zero (flushSubnormal).
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
	j := gemmDataJob{cfg: cfg, dOut: stridesOf(dOut), dIn: stridesOf(dIn), slabs: gradDataSlabs(cfg)}
	j.wt = scratch[:cfg.FH*cfg.FW*j.slabs*gemmMR*cfg.K]
	j.slots = scratch[len(j.wt):need]
	j.lanes = min(j.slabs, gemmGradDataLanes)
	packTransposedFilters(j.wt, stridesOf(filters), cfg)
	par.Planes(j.lanes, j, gemmDataLane)
	return nil
}

// packTransposedFilters writes the filter bank as the slab-packed left
// operand Wᵀ, tap by tap in (fh, fw) order: each tap's C rows (input
// channels) in slabs of gemmMR, the last zero-padded, by K (the reduction).
func packTransposedFilters(dst []float32, f strided, cfg ConvConfig) {
	perTap := gradDataSlabs(cfg) * gemmMR // rows a tap takes
	for i := 0; i < len(dst)/cfg.K; i++ {
		slab := dst[i/gemmMR*gemmMR*cfg.K:]
		row, tp, c := i%gemmMR, i/perTap, i%perTap
		if c >= cfg.C {
			for k := 0; k < cfg.K; k++ {
				slab[row+k*gemmMR] = 0
			}
			continue
		}
		src := f.data[c*f.c+tp/cfg.FW*f.h+tp%cfg.FW*f.w:]
		for k := 0; k < cfg.K; k++ {
			slab[row+k*gemmMR] = src[k*f.n]
		}
	}
}

// gemmDataJob is one ConvGemmBackwardDataInto call: wt is the packed Wᵀ every
// lane reads, slabs its slabs per tap, slots one K × gemmNR panel per lane.
type gemmDataJob struct {
	cfg          ConvConfig
	dOut, dIn    strided
	wt, slots    []float32
	slabs, lanes int
}

// gemmDataLane computes the input gradient of the lane's slabs of channels.
//
//memcnn:noalloc
func gemmDataLane(j gemmDataJob, lane int) {
	cfg, d := &j.cfg, &j.dIn
	k := cfg.K
	s0, s1 := lane*j.slabs/j.lanes, (lane+1)*j.slabs/j.lanes
	panel := j.slots[lane*k*gemmNR : (lane+1)*k*gemmNR]
	var cTile [gemmMR * gemmNR]float32
	var runs [gemmNR]colRun
	var at [gemmNR]int // the dX offset of each run's first image, channel 0
	var rows panelRows
	j.zeroChannels(s0*gemmMR, min(s1*gemmMR, cfg.C))
	cols := cfg.N * cfg.OutH() * cfg.OutW()
	for col := 0; col < cols; col += gemmNR {
		w := min(gemmNR, cols-col)
		rs := runs[:gradRuns(runs[:], cfg, col, w)]
		j.gatherPanel(panel, rs, w)
		for fh := 0; fh < cfg.FH; fh++ {
			for fw := 0; fw < cfg.FW; fw++ {
				direct, any := j.targets(at[:len(rs)], rs, w, fh, fw)
				if !any {
					continue
				}
				for s := s0; s < s1; s++ {
					a, c := j.wt[((fh*cfg.FW+fw)*j.slabs+s)*gemmMR*k:], s*gemmMR
					if direct && c+gemmMR <= cfg.C {
						gemmMicroPanel(&rows, k, a, panel, d.data[c*d.c+at[0]:], d.c)
						continue
					}
					plane, h := d.data[c*d.c:], min(gemmMR, cfg.C-c)
					moveTile(&cTile, plane, d.c, d.n, h, rs, at[:len(rs)], false)
					gemmMicroPanel(&rows, k, a, panel, cTile[:], gemmNR)
					moveTile(&cTile, plane, d.c, d.n, h, rs, at[:len(rs)], true)
				}
			}
		}
	}
}

// gemmMicroPanel adds A·B onto the micro-tile at c (contract: gemmMicroGo),
// where B is all k steps of the packed panel p, in gemmKC blocks through
// rows.
func gemmMicroPanel(rows *panelRows, k int, a, p, c []float32, ldc int) {
	for kb := 0; kb < k; kb += gemmKC {
		kc := min(gemmKC, k-kb)
		gemmMicro(kc, a[kb*gemmMR:], rows.of(p[kb*gemmNR:], kc), c, ldc, true)
	}
}

// targets works out, for filter tap (fh, fw), where each run of the panel
// adds onto dX: at[i] is run i's first image's offset in channel 0, or -1
// where the tap falls outside the input.  direct reports whether the panel's
// w = gemmNR columns are gemmNR consecutive floats of each channel plane, so
// the micro-kernel can add onto dX in place; any whether any run is in range.
func (j *gemmDataJob) targets(at []int, runs []colRun, w, fh, fw int) (direct, any bool) {
	cfg, d := &j.cfg, &j.dIn
	direct = w == gemmNR && d.n == 1
	for i, r := range runs {
		ih, iw := r.oh*cfg.StrideH-cfg.PadH+fh, r.ow*cfg.StrideW-cfg.PadW+fw
		if ih < 0 || ih >= cfg.H || iw < 0 || iw >= cfg.W {
			at[i], direct = -1, false
			continue
		}
		at[i], any = r.n*d.n+ih*d.h+iw*d.w, true
		if i > 0 && at[i] != at[i-1]+runs[i-1].len {
			direct = false
		}
	}
	return direct, any
}

// zeroChannels zeroes the input gradient of channels [c0, c1), every image.
func (j *gemmDataJob) zeroChannels(c0, c1 int) {
	cfg, d := &j.cfg, &j.dIn
	if d.n == 1 { // CHWN: the channels are one run
		clear(d.data[c0*d.c : c1*d.c])
		return
	}
	for n := 0; n < cfg.N; n++ {
		for c := c0; c < c1; c++ {
			for ih := 0; ih < cfg.H; ih++ {
				row := d.data[n*d.n+c*d.c+ih*d.h:]
				for iw := 0; iw < cfg.W; iw++ {
					row[iw*d.w] = 0
				}
			}
		}
	}
}

// gatherPanel copies the panel's columns — the runs, w columns in all — of
// the output gradient, all K filters, into panel in the packed right-operand
// format at the full gemmNR width, the columns past w zeroed.
func (j *gemmDataJob) gatherPanel(panel []float32, runs []colRun, w int) {
	d := &j.dOut
	for _, r := range runs {
		src := d.data[r.n*d.n+r.oh*d.h+r.ow*d.w:]
		for k := 0; k < j.cfg.K; k++ {
			dst, s := panel[k*gemmNR+r.at:k*gemmNR+r.at+r.len], src[k*d.c:]
			for i := range dst {
				dst[i] = flushSubnormal(s[i*d.n])
			}
		}
	}
	for k := 0; k < j.cfg.K; k++ {
		clear(panel[k*gemmNR+w : (k+1)*gemmNR])
	}
}

// ConvGemmBackwardFilterWorkspaceElems returns the scratch
// ConvGemmBackwardFilterInto needs, in float32 elements: per lane, a block of
// gradBlock(cfg) columns of the output gradient packed as the left operand and
// the matching block of one unrolled tap panel.
func ConvGemmBackwardFilterWorkspaceElems(cfg ConvConfig) int {
	cfg = cfg.WithDefaults()
	block := gradBlock(cfg)
	lanes := min(ceilDiv(cfg.ReductionLength(), gemmNR), gemmGradLanes)
	return lanes * (gemmPackedAElems(cfg.K, block) + block*gemmNR)
}

// gradBlock returns how many columns the filter gradient reduces over per
// packed block.  It is at most the block of the per-image form this one
// replaced, the positions of as many whole output rows of one image as
// gemmGradKC holds (gemmGradKC when one row does not fit), so the workspace
// is no larger; and it is whole output positions of the batch where that
// holds one, so a block cuts no run of images.
func gradBlock(cfg ConvConfig) int {
	block := gemmGradKC
	if outW := cfg.OutW(); outW <= gemmGradKC {
		block = min(gemmGradKC/outW, cfg.OutH()) * outW
	}
	if block >= cfg.N {
		block -= block % cfg.N
	}
	return block
}

// ConvGemmBackwardFilterInto computes the gradient of the convolution with
// respect to its filter bank, dW[k][c][fh][fw] = sum over (n, oh, ow) of
// dOut[n][k][oh][ow] * in[n][c][oh*S+fh-pad][ow*S+fw-pad], into dW (NCHW: the
// row-major K × C·FH·FW matrix the product fills in place; fully overwritten)
// from in and dOut (any layouts), with scratch of at least
// ConvGemmBackwardFilterWorkspaceElems(cfg) elements.  The gemmNR-wide panels
// of filter taps are split between the lanes in contiguous runs.  A lane
// walks the whole reduction block by block of columns: it packs the block of
// dOut once and, for each of its panels, unrolls the block of input straight
// into the packed format and accumulates the product into dW.  A subnormal
// dOut value is read as zero (flushSubnormal).
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
	j := gemmFilterJob{cfg: cfg, in: stridesOf(in), dOut: stridesOf(dOut), dW: dW.Data, kdim: cfg.ReductionLength(), block: gradBlock(cfg)}
	j.panels = ceilDiv(j.kdim, gemmNR)
	j.lanes = par.Workers(min(j.panels, gemmGradLanes))
	j.slot = need / min(j.panels, gemmGradLanes)
	j.slots = scratch[:need]
	par.Planes(j.lanes, j, gemmFilterLane)
	return nil
}

// gemmFilterJob is one ConvGemmBackwardFilterInto call: lane l owns panels
// [l·panels/lanes, (l+1)·panels/lanes) and slot l of slots; blocks are at most
// block columns.
type gemmFilterJob struct {
	cfg                 ConvConfig
	in, dOut            strided
	dW, slots           []float32
	kdim, block         int
	panels, lanes, slot int
}

// gemmFilterLane accumulates the filter gradient over the lane's tap panels.
// A micro-tile cut by the last slab or a narrow panel goes through a stack
// tile, as in convGemmLane.
//
//memcnn:noalloc
func gemmFilterLane(j gemmFilterJob, lane int) {
	cfg := &j.cfg
	m, k := cfg.K, j.kdim
	slot := j.slots[lane*j.slot : (lane+1)*j.slot]
	aElems := gemmPackedAElems(m, j.block)
	var cTile [gemmMR * gemmNR]float32
	var runs [gemmGradKC]colRun
	var rows panelRows
	cols := cfg.N * cfg.OutH() * cfg.OutW()
	for col := 0; col < cols; col += j.block {
		kc := min(j.block, cols-col)
		ap, bp := slot[:gemmPackedAElems(m, kc)], slot[aElems:aElems+kc*gemmNR]
		rs := runs[:gradRuns(runs[:], cfg, col, kc)]
		j.packGradBlock(ap, rs, kc)
		for p := lane * j.panels / j.lanes; p < (lane+1)*j.panels/j.lanes; p++ {
			first := p * gemmNR
			w := min(gemmNR, k-first)
			j.unrollBlock(bp, rs, kc, first, w)
			b := rows.of(bp, kc)
			for row := 0; row < m; row += gemmMR {
				h := min(gemmMR, m-row)
				a := ap[row*kc : (row+gemmMR)*kc]
				if h == gemmMR && w == gemmNR {
					gemmMicro(kc, a, b, j.dW[row*k+first:], k, col > 0)
					continue
				}
				if col > 0 {
					for r := 0; r < h; r++ {
						copy(cTile[r*gemmNR:r*gemmNR+w], j.dW[(row+r)*k+first:])
					}
				}
				gemmMicro(kc, a, b, cTile[:], gemmNR, col > 0)
				for r := 0; r < h; r++ {
					copy(j.dW[(row+r)*k+first:(row+r)*k+first+w], cTile[r*gemmNR:])
				}
			}
		}
	}
}

// packGradBlock packs the block's kc columns — the runs — of the output
// gradient, all K filters, into ap in the slab format of the left operand
// (the columns are the reduction), the last slab zero-padded.
func (j *gemmFilterJob) packGradBlock(ap []float32, runs []colRun, kc int) {
	d := &j.dOut
	for k := 0; k < len(ap)/kc; k++ {
		slab := ap[k/gemmMR*gemmMR*kc+k%gemmMR:]
		if k >= j.cfg.K {
			for i := 0; i < kc; i++ {
				slab[i*gemmMR] = 0
			}
			continue
		}
		for _, r := range runs {
			at, dst := r.n*d.n+k*d.c+r.oh*d.h+r.ow*d.w, slab[r.at*gemmMR:]
			if d.n == 1 {
				packRun(dst, d.data[at:at+r.len])
				continue
			}
			for i := 0; i < r.len; i++ {
				dst[i*gemmMR] = flushSubnormal(d.data[at+i*d.n])
			}
		}
	}
}

// unrollBlock writes the block's rows of col(X)ᵀ — one per column, the runs
// — restricted to taps [first, first+w), into bp in the packed right-operand
// format at the full gemmNR width: each holds the input value every tap
// reads at that column, zero where it falls in the padding, and zero past w.
func (j *gemmFilterJob) unrollBlock(bp []float32, runs []colRun, kc, first, w int) {
	cfg, in := &j.cfg, &j.in
	tp := tapAt(cfg, first)
	for t := 0; t < gemmNR; t++ {
		dst := bp[t : t+(kc-1)*gemmNR+1] // column i's tap t is dst[i*gemmNR]
		if t >= w {
			for i := 0; i < len(dst); i += gemmNR {
				dst[i] = 0
			}
			continue
		}
		for _, r := range runs {
			to := dst[r.at*gemmNR : (r.at+r.len-1)*gemmNR+1]
			ih, iw := r.oh*cfg.StrideH-cfg.PadH+tp.fh, r.ow*cfg.StrideW-cfg.PadW+tp.fw
			if ih < 0 || ih >= cfg.H || iw < 0 || iw >= cfg.W {
				for i := 0; i < len(to); i += gemmNR {
					to[i] = 0
				}
				continue
			}
			at := r.n*in.n + tp.c*in.c + ih*in.h + iw*in.w
			if in.n == 1 {
				spreadRun(to, in.data[at:at+r.len])
				continue
			}
			for i := 0; i < len(to); i += gemmNR {
				to[i] = in.data[at]
				at += in.n
			}
		}
		tp = tp.next(cfg)
	}
}

// tap is a filter tap, a row of the unroll: input channel c, filter row fh
// and column fw.
type tap struct{ c, fh, fw int }

// tapAt returns row t of cfg's unroll.
func tapAt(cfg *ConvConfig, t int) tap {
	taps := cfg.FH * cfg.FW
	return tap{t / taps, t % taps / cfg.FW, t % cfg.FW}
}

// next returns the tap after p, without a division.
func (p tap) next(cfg *ConvConfig) tap {
	if p.fw++; p.fw == cfg.FW {
		if p.fw, p.fh = 0, p.fh+1; p.fh == cfg.FH {
			p.fh, p.c = 0, p.c+1
		}
	}
	return p
}

// spreadRun writes src into every gemmNR-th element of dst, a column of a
// packed panel; whole runs of 8 go without a loop or a bounds check.
func spreadRun(dst, src []float32) {
	for len(src) >= 8 {
		d, s := (*[7*gemmNR + 1]float32)(dst), (*[8]float32)(src)
		d[0] = s[0]
		d[gemmNR] = s[1]
		d[2*gemmNR] = s[2]
		d[3*gemmNR] = s[3]
		d[4*gemmNR] = s[4]
		d[5*gemmNR] = s[5]
		d[6*gemmNR] = s[6]
		d[7*gemmNR] = s[7]
		src = src[8:]
		if len(src) == 0 {
			return
		}
		dst = dst[8*gemmNR:]
	}
	for i, v := range src {
		dst[i*gemmNR] = v
	}
}

// packRun writes src, each subnormal read as zero, into every gemmMR-th
// element of dst, a column of a packed slab; whole runs of 8 go without a
// loop or a bounds check.
func packRun(dst, src []float32) {
	for len(src) >= 8 {
		d, s := (*[7*gemmMR + 1]float32)(dst), (*[8]float32)(src)
		d[0] = flushSubnormal(s[0])
		d[gemmMR] = flushSubnormal(s[1])
		d[2*gemmMR] = flushSubnormal(s[2])
		d[3*gemmMR] = flushSubnormal(s[3])
		d[4*gemmMR] = flushSubnormal(s[4])
		d[5*gemmMR] = flushSubnormal(s[5])
		d[6*gemmMR] = flushSubnormal(s[6])
		d[7*gemmMR] = flushSubnormal(s[7])
		src = src[8:]
		if len(src) == 0 {
			return
		}
		dst = dst[8*gemmMR:]
	}
	for i, v := range src {
		dst[i*gemmMR] = flushSubnormal(v)
	}
}
