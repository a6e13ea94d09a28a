package kernels

import (
	"fmt"

	"memcnn/internal/fft"
	"memcnn/internal/par"
	"memcnn/internal/tensor"
)

// FFT-based convolution (Section IV.A, "Data Layouts in FFT-based
// Implementations"): convolution in the space domain becomes a pointwise
// product in the frequency domain, at the cost of padding every filter to the
// feature-map size.
//
// No compiled program runs this kernel: it ran 14–679× slower than the
// fastest other kernel on every convolution of the five workload networks,
// so the compiler's layers, price list and verifier know only direct and
// GEMM.  It stays, with its tests, only because the benchmark module
// (benchmark/layers.go, benchmark/work.go) still times it and classifies
// ConvAlgFFT; it goes when the benchmark's FFT metrics do (ROADMAP item 4).

// fftMaxWorkers caps the image-stage parallelism of ConvFFTInto.  The
// workspace carries one private block of channel spectra plus an accumulator
// per worker, so the cap keeps ConvFFTWorkspaceElems a pure function of the
// layer shape — the compiler sizes the arena scratch once, independent of the
// GOMAXPROCS the program later runs under.
const fftMaxWorkers = 8

// convFFTPlane returns the transform plane ConvFFTInto uses: the next power of two of the padded input, each way.  That
// is always enough for a valid correlation — every needed output row
// ih = oh·stride satisfies ih + FH - 1 ≤ padH - 1 ≤ pR - 1, so circular
// wraparound never reaches a sampled element.  The GPU model
// (gpusim.FFTWorkspaceBytes) deliberately keeps the more conservative
// padH+FH-1 sizing of the emulated cuDNN v4 mode: the paper's memory-overhead
// story (and its 6 GB OOM failures) describe that implementation, not this
// leaner kernel.
func convFFTPlane(cfg ConvConfig) (pR, pC int) {
	cfg = cfg.WithDefaults()
	return fft.NextPow2(cfg.H + 2*cfg.PadH), fft.NextPow2(cfg.W + 2*cfg.PadW)
}

// ConvFFTWorkspaceElems returns the scratch ConvFFTInto needs, in float32
// elements: split re/im spectra for all K·C filters, plus one private block
// per worker holding the current image's C channel spectra and the
// accumulator plane.  The worker count is min(N, fftMaxWorkers), so the size
// depends only on the layer shape.
func ConvFFTWorkspaceElems(cfg ConvConfig) int {
	cfg = cfg.WithDefaults()
	pR, pC := convFFTPlane(cfg)
	workers := min(cfg.N, fftMaxWorkers)
	return 2 * pR * pC * (cfg.K*cfg.C + workers*(cfg.C+1))
}

// ConvFFTInto is the allocation-free production form of the FFT convolution:
// filter and image spectra are computed in the caller-provided scratch (at
// least ConvFFTWorkspaceElems(cfg) elements, contents unspecified on entry),
// multiplied per (image, output-channel) pair with accumulation over input
// channels in ascending order, and transformed back.  Strides larger than one
// subsample the dense correlation.  Any input and output layouts are
// accepted; the accumulation order is fixed, so results are bit-identical
// across layouts, batch splits and worker counts.  With a single worker the
// kernel performs no heap allocation at all.
//
//memcnn:noalloc
func ConvFFTInto(in, filters, out *tensor.Tensor, cfg ConvConfig, scratch []float32) error {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return err
	}
	if in.Shape != cfg.InputShape() {
		return fmt.Errorf("kernels: conv input shape %v does not match config %v", in.Shape, cfg.InputShape())
	}
	if filters.Shape != cfg.FilterShape() {
		return fmt.Errorf("kernels: filter shape %v does not match config %v", filters.Shape, cfg.FilterShape())
	}
	if out.Shape != cfg.OutputShape() {
		return fmt.Errorf("kernels: conv output shape %v does not match config %v", out.Shape, cfg.OutputShape())
	}
	if need := ConvFFTWorkspaceElems(cfg); len(scratch) < need {
		return fmt.Errorf("kernels: fft conv scratch has %d elements, want at least %d", len(scratch), need)
	}
	pR, pC := convFFTPlane(cfg)
	filtElems := cfg.K * cfg.C * 2 * pR * pC
	j := convFFTJob{in: in, filters: filters, out: out, cfg: cfg, pR: pR, pC: pC,
		filtArea: scratch[:filtElems], workArea: scratch[filtElems:],
		lanes: par.Workers(min(cfg.N, fftMaxWorkers))}
	par.Planes(cfg.K*cfg.C, j, convFFTFilterBlock)
	par.Planes(j.lanes, j, convFFTLane)
	return nil
}

// convFFTJob is one ConvFFTInto call.  The filter stage is one plane per
// (k, c) spectrum.  The image stage is one plane per lane: a lane owns one
// private block of the work area, so only the blocks of lanes that can run at
// once are ever touched.
type convFFTJob struct {
	in, filters, out   *tensor.Tensor
	cfg                ConvConfig
	pR, pC             int
	filtArea, workArea []float32
	lanes              int
}

// convFFTLane convolves images lane, lane+lanes, … in the lane's block.
func convFFTLane(j convFFTJob, lane int) {
	perLane := (j.cfg.C + 1) * 2 * j.pR * j.pC
	block := j.workArea[lane*perLane : (lane+1)*perLane]
	for n := lane; n < j.cfg.N; n += j.lanes {
		convFFTImage(j.in, j.out, j.cfg, n, block, j.filtArea, j.pR, j.pC)
	}
}

// convFFTFilterBlock fills filter spectrum idx = k·C + c: the FH×FW filter
// tap block is zero-padded into the pR×pC plane pair at filtArea[idx·2·pts]
// (re plane first, then im) and transformed forward in place.
func convFFTFilterBlock(j convFFTJob, idx int) {
	filters, cfg, filtArea, pR, pC := j.filters, j.cfg, j.filtArea, j.pR, j.pC
	pts := pR * pC
	k, c := idx/cfg.C, idx%cfg.C
	re := filtArea[idx*2*pts : idx*2*pts+pts]
	im := filtArea[idx*2*pts+pts : (idx+1)*2*pts]
	clear(filtArea[idx*2*pts : (idx+1)*2*pts])
	for fh := 0; fh < cfg.FH; fh++ {
		row := re[fh*pC:]
		for fw := 0; fw < cfg.FW; fw++ {
			row[fw] = filters.At(k, c, fh, fw)
		}
	}
	// Sizes are powers of two and the planes exact, so the transform cannot
	// fail (validated by ConvFFTInto up front).
	_ = fft.Forward2DSplit(re, im, pR, pC)
}

// convFFTImage convolves image n: its C channel spectra are transformed once
// into the worker's private block, then for each output channel the
// channel-ascending spectrum products accumulate into the block's last plane
// pair, which is inverse-transformed and subsampled into the output.
func convFFTImage(in, out *tensor.Tensor, cfg ConvConfig, n int, block, filtArea []float32, pR, pC int) {
	pts := pR * pC
	sn, sc, sh, sw := in.Shape.Strides(in.Layout)
	for c := 0; c < cfg.C; c++ {
		re := block[c*2*pts : c*2*pts+pts]
		im := block[c*2*pts+pts : (c+1)*2*pts]
		clear(block[c*2*pts : (c+1)*2*pts])
		base := n*sn + c*sc
		for h := 0; h < cfg.H; h++ {
			row := re[(h+cfg.PadH)*pC+cfg.PadW:]
			off := base + h*sh
			for x := 0; x < cfg.W; x++ {
				row[x] = in.Data[off+x*sw]
			}
		}
		_ = fft.Forward2DSplit(re, im, pR, pC)
	}
	accRe := block[cfg.C*2*pts : cfg.C*2*pts+pts]
	accIm := block[cfg.C*2*pts+pts : (cfg.C+1)*2*pts]
	outH, outW := cfg.OutH(), cfg.OutW()
	on, oc, ohs, ows := out.Shape.Strides(out.Layout)
	for k := 0; k < cfg.K; k++ {
		clear(accRe)
		clear(accIm)
		for c := 0; c < cfg.C; c++ {
			fbase := (k*cfg.C + c) * 2 * pts
			fft.SpectrumCorrelateSplit(accRe, accIm,
				block[c*2*pts:c*2*pts+pts], block[c*2*pts+pts:(c+1)*2*pts],
				filtArea[fbase:fbase+pts], filtArea[fbase+pts:fbase+2*pts])
		}
		_ = fft.Inverse2DSplit(accRe, accIm, pR, pC)
		obase := n*on + k*oc
		for oh := 0; oh < outH; oh++ {
			ih := oh * cfg.StrideH
			off := obase + oh*ohs
			src := accRe[ih*pC:]
			for ow := 0; ow < outW; ow++ {
				out.Data[off+ow*ows] = src[ow*cfg.StrideW]
			}
		}
	}
}
