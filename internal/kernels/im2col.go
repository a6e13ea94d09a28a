package kernels

// im2col: the matrix-unroll step of the Caffe/cuDNN convolution path.  It
// expands the input tensor into a 2-D matrix so that the convolution becomes
// a single GEMM (Section II.B): one row per filter tap (C*FH*FW of them, the
// reduction dimension K of the GEMM), one column per output pixel, with zeros
// where a tap falls in the padding.  The expansion multiplies the input
// footprint by FH*FW/ (StrideH*StrideW), which is the "matrix transformation
// overhead" the paper blames for the poor NCHW performance at small C.

// im2colPanel unrolls panel p of image n into j.unroll, in the packed format
// of the GEMM core's right operand (gemm.go): logically the unroll matrix is
// (C·FH·FW) × (OutH·OutW); it is stored in panels of gemmNR consecutive
// columns (output pixels), row-major inside a panel, the last panel at its
// true width — so the whole matrix takes exactly rows·cols floats, the size of
// the plain one.  The input is read through its strides, so any layout works.
// Every element of the panel is written (out-of-range taps with zero), so the
// scratch may hold garbage on entry; a panel is contiguous and written by one
// plane.
//
// The panel's columns are cut into runs of consecutive output pixels of one
// output row; for a run and a filter tap (fh, fw) the in-range pixels [lo, hi)
// and the source offset are the same in every channel, so they are worked out
// once (the column range, with its divisions, once per fw) and the channel
// loop only copies.
func im2colPanel(j *convGemmJob, n, p int) {
	cfg := &j.cfg
	taps := cfg.FH * cfg.FW
	col0 := p * gemmNR
	w := min(gemmNR, j.ohw-col0)
	panel := j.unroll[col0*cfg.C*taps : (col0+w)*cfg.C*taps]
	in := &j.in
	unit := in.w == 1 && cfg.StrideW == 1
	for at := 0; at < w; {
		oh, ow := (col0+at)/j.outW, (col0+at)%j.outW
		run := min(w-at, j.outW-ow)
		for fw := 0; fw < cfg.FW; fw++ {
			inLo, inHi := tapRange(fw, cfg.StrideW, cfg.PadW, 0, cfg.W, ow, ow+run)
			for fh := 0; fh < cfg.FH; fh++ {
				ih := oh*cfg.StrideH - cfg.PadH + fh
				lo, hi := inLo, inHi
				if ih < 0 || ih >= cfg.H || lo >= hi {
					lo, hi = ow, ow
				}
				src := n*in.n + ih*in.h + (lo*cfg.StrideW-cfg.PadW+fw)*in.w
				row := (fh*cfg.FW+fw)*w + at
				for c := 0; c < cfg.C; c++ {
					seg := panel[row : row+run]
					for i := range seg[:lo-ow] {
						seg[i] = 0
					}
					for i := hi - ow; i < run; i++ {
						seg[i] = 0
					}
					switch {
					case lo == hi:
					case unit:
						copy(seg[lo-ow:hi-ow], in.data[src:])
					default:
						from := src
						for i := lo - ow; i < hi-ow; i++ {
							seg[i] = in.data[from]
							from += cfg.StrideW * in.w
						}
					}
					src += in.c
					row += taps * w
				}
			}
		}
		at += run
	}
}

// im2colBatchPanel is im2colPanel for the batch-folded form (CHWN input): it
// unrolls columns [col0, col0+w) of the (C·FH·FW) × (OutH·OutW·N) matrix whose
// column j is output pixel j/N of image j%N, into panel in the same packed
// format (row-major at the true width w, every element written).  The batch is
// the unit-stride axis of the input, so the panel is cut into runs of
// consecutive columns that are consecutive input floats for every filter tap,
// and a run is one copy per tap (a fixed-size move, which the compiler
// inlines, when the run is a whole gemmNR-wide panel), or zeros where the tap
// falls in the padding.  A run is the images of one pixel; with stride-W 1 the
// next pixel of the output row reads every tap one input column, N floats, on,
// so a run that starts on a pixel whose window lies inside the image goes on
// across every such pixel of the row, up to the panel's end.
func im2colBatchPanel(j *convGemmBatch, panel []float32, col0, w int) {
	cfg := &j.cfg
	in := &j.in
	// Output columns [PadW, inside) have every tap inside the image.
	inside := -1
	if cfg.StrideW == 1 {
		inside = min(j.outW, cfg.W-cfg.FW+cfg.PadW+1)
	}
	for at := 0; at < w; {
		pixel, n := (col0+at)/cfg.N, (col0+at)%cfg.N
		ow := pixel % j.outW
		run := min(w-at, cfg.N-n)
		if ow >= cfg.PadW && ow < inside {
			run = min(w-at, (inside-ow)*cfg.N-n)
		}
		ih0 := pixel/j.outW*cfg.StrideH - cfg.PadH
		iw0 := ow*cfg.StrideW - cfg.PadW
		row := at
		for c := 0; c < cfg.C; c++ {
			for fh := 0; fh < cfg.FH; fh++ {
				ih := ih0 + fh
				src := c*in.c + ih*in.h + iw0*in.w + n
				for fw := 0; fw < cfg.FW; fw++ {
					iw := iw0 + fw
					seg := panel[row : row+run]
					switch {
					case ih < 0 || ih >= cfg.H || iw < 0 || iw >= cfg.W:
						clear(seg)
					case run == gemmNR:
						*(*[gemmNR]float32)(seg) = [gemmNR]float32(in.data[src+fw*in.w:])
					default:
						copy(seg, in.data[src+fw*in.w:])
					}
					row += w
				}
			}
		}
		at += run
	}
}
