package kernels

// im2col: the matrix-unroll step of the Caffe/cuDNN convolution path.  It
// expands the input tensor into a 2-D matrix so that the convolution becomes
// a single GEMM (Section II.B): one row per filter tap (C*FH*FW of them, the
// reduction dimension K of the GEMM), one column per output pixel, with zeros
// where a tap falls in the padding.  The expansion multiplies the input
// footprint by FH*FW/ (StrideH*StrideW), which is the "matrix transformation
// overhead" the paper blames for the poor NCHW performance at small C.
//
// Here it unrolls one gemmNR-column panel at a time, and only the panels the
// lane loop cannot read in place (conv_gemm.go): every panel of an NCHW
// input, and in a CHWN input the panels cut into several runs (a panel
// straddling two positions, a run cut at a row's padded edge) or narrower
// than gemmNR.

// cutRuns cuts columns [col, col+w) of the call's product into runs that
// step through the input at inStep and the output at outStep, and returns how
// many it wrote into runs (w of them at most).  In the image-fastest order a
// run is the images of one position, carried on across the row's inside
// positions where j.inside allows; in the other it is a piece of one output
// row of one image.
func (j *convGemmJob) cutRuns(runs []colRun, col, w int) int {
	cfg, r := &j.cfg, 0
	for at := 0; at < w; r++ {
		c, run := col+at, colRun{at: at}
		if j.imageFastest {
			pos := c / cfg.N
			run.n, run.oh, run.ow = c%cfg.N, pos/j.outW, pos%j.outW
			run.len = min(w-at, cfg.N-run.n)
			if run.ow >= cfg.PadW && run.ow < j.inside {
				run.len = min(w-at, (j.inside-run.ow)*cfg.N-run.n)
			}
		} else {
			pos := c % j.ohw
			run.n, run.oh, run.ow = c/j.ohw, pos/j.outW, pos%j.outW
			run.len = min(w-at, j.outW-run.ow)
		}
		runs[r] = run
		at += run.len
	}
	return r
}

// im2col unrolls the panel's columns — the runs, w of them — into panel, in
// the packed format of the GEMM core's right operand (gemm.go): row-major at
// the true width w, one row per filter tap (c, fh, fw).  Each column holds
// the input value the tap reads for its output position, zero where it falls
// in the padding; every element is written, so the slot may hold garbage on
// entry.  The input is read through its strides, so any layout works.
//
// For a run and a tap (fh, fw) the in-range columns [lo, hi) and the source
// offset are the same in every channel, so they are worked out once (the
// column range, with its divisions, once per fw) and the channel loop only
// copies: one copy where the run's columns are consecutive input floats (a
// fixed-size move, which the compiler inlines, when the run is a whole
// gemmNR-wide panel), a strided gather otherwise.
func (j *convGemmJob) im2col(panel []float32, runs []colRun, w int) {
	cfg, in, step := &j.cfg, &j.in, j.inStep
	stride := cfg.FH * cfg.FW * w // from a tap's row to the next channel's
	for _, r := range runs {
		for fw := 0; fw < cfg.FW; fw++ {
			lo, hi := 0, 0 // the run's in-range columns, from its first
			if !j.imageFastest {
				lo, hi = tapRange(fw, cfg.StrideW, cfg.PadW, 0, cfg.W, r.ow, r.ow+r.len)
				lo, hi = lo-r.ow, max(lo, hi)-r.ow
			} else if iw := r.ow*cfg.StrideW - cfg.PadW + fw; iw >= 0 && iw < cfg.W {
				hi = r.len
			}
			for fh := 0; fh < cfg.FH; fh++ {
				l, h := lo, hi
				ih := r.oh*cfg.StrideH - cfg.PadH + fh
				if ih < 0 || ih >= cfg.H {
					l, h = 0, 0
				}
				src := r.n*in.n + ih*in.h + (r.ow*cfg.StrideW-cfg.PadW+fw)*in.w + l*step
				rows := panel[(fh*cfg.FW+fw)*w+r.at:]
				switch {
				case l >= h:
					for c := 0; c < cfg.C; c++ {
						clear(rows[c*stride : c*stride+r.len])
					}
				case step == 1 && h-l == gemmNR:
					for c := 0; c < cfg.C; c, src = c+1, src+in.c {
						*(*[gemmNR]float32)(rows[c*stride:]) = [gemmNR]float32(in.data[src:])
					}
				default:
					for c := 0; c < cfg.C; c, src = c+1, src+in.c {
						seg := rows[c*stride : c*stride+r.len]
						if l > 0 || h < r.len {
							clear(seg[:l])
							clear(seg[h:])
						}
						if step == 1 {
							copy(seg[l:h], in.data[src:])
							continue
						}
						for i, from := l, src; i < h; i, from = i+1, from+step {
							seg[i] = in.data[from]
						}
					}
				}
			}
		}
	}
}
