package kernels

import (
	"fmt"
	"math"

	"memcnn/internal/fft"
	"memcnn/internal/gpusim"
	"memcnn/internal/par"
	"memcnn/internal/tensor"
)

// FFT-based convolution: the cuDNN v4 FFT and FFT-Tiling modes
// (Section IV.A, "Data Layouts in FFT-based Implementations").  Convolution
// in the space domain becomes a pointwise product in the frequency domain, at
// the cost of padding every filter to the feature-map size: the padding (and
// the frequency-domain copies of inputs, filters and outputs) is the memory
// overhead that makes the FFT mode fail on CV5 and CV6 on a 6 GB card.

// ErrOutOfMemory is returned when a convolution mode needs more device memory
// than the target GPU provides, matching the execution failures the paper
// reports for the FFT modes.
type ErrOutOfMemory struct {
	Kernel   string
	Required int64
	Device   string
	Capacity int64
}

// Error implements the error interface.
func (e *ErrOutOfMemory) Error() string {
	return fmt.Sprintf("kernels: %s requires %.2f GiB but %s has %.2f GiB",
		e.Kernel, float64(e.Required)/(1<<30), e.Device, float64(e.Capacity)/(1<<30))
}

// fftWorkspaceFactor scales the raw spectra footprint to the full workspace
// the batched frequency-domain implementation keeps live (split-complex
// copies, the out-of-place transform buffers and the transposed operands of
// the per-frequency batched product).  The value reflects cuDNN v4's observed
// workspace appetite: with it, exactly the two layers the paper reports
// (CONV5 and CONV6) exceed the 6 GB Titan Black while the other Table 1
// layers fit.
const fftWorkspaceFactor = 4.2

// fftTileEdge is the tile size of the FFT-Tiling mode (the paper: "splits the
// inputs into 32x32 tiles such that the memory overhead can be reduced").
const fftTileEdge = 32

// fftStageEfficiency is the fraction of peak FLOPs the batched forward and
// inverse transforms sustain; fftPointwiseMaxEff caps the frequency-domain
// batched complex product.
const (
	fftStageEfficiency = 0.14
	fftPointwiseMaxEff = 0.45
)

// fftMaxWorkers caps the image-stage parallelism of ConvFFTInto.  The
// workspace carries one private block of channel spectra plus an accumulator
// per worker, so the cap keeps ConvFFTWorkspaceElems a pure function of the
// layer shape — the compiler sizes the arena scratch once, independent of the
// GOMAXPROCS the program later runs under.
const fftMaxWorkers = 8

// ConvFFTPlane returns the transform plane the production kernel (ConvFFTInto)
// actually uses: the next power of two of the padded input, each way.  That
// is always enough for a valid correlation — every needed output row
// ih = oh·stride satisfies ih + FH - 1 ≤ padH - 1 ≤ pR - 1, so circular
// wraparound never reaches a sampled element.  The modeled-cost side (fftPadSize, FFTWorkspaceBytes)
// deliberately keeps the more conservative padH+FH-1 sizing of the emulated
// cuDNN v4 mode: the paper's memory-overhead story (and its 6 GB OOM
// failures) describe that implementation, not this leaner kernel.
func ConvFFTPlane(cfg ConvConfig) (pR, pC int) {
	cfg = cfg.withDefaults()
	return fft.NextPow2(cfg.H + 2*cfg.PadH), fft.NextPow2(cfg.W + 2*cfg.PadW)
}

// ConvFFTWorkspaceElems returns the scratch ConvFFTInto needs, in float32
// elements: split re/im spectra for all K·C filters, plus one private block
// per worker holding the current image's C channel spectra and the
// accumulator plane.  The worker count is min(N, fftMaxWorkers), so the size
// depends only on the layer shape.
func ConvFFTWorkspaceElems(cfg ConvConfig) int {
	cfg = cfg.withDefaults()
	pR, pC := ConvFFTPlane(cfg)
	workers := cfg.N
	if workers > fftMaxWorkers {
		workers = fftMaxWorkers
	}
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
	cfg = cfg.withDefaults()
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
	pR, pC := ConvFFTPlane(cfg)
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
	for i := range re {
		re[i] = 0
	}
	for i := range im {
		im[i] = 0
	}
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
		for i := range re {
			re[i] = 0
		}
		for i := range im {
			im[i] = 0
		}
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
		for i := range accRe {
			accRe[i] = 0
		}
		for i := range accIm {
			accIm[i] = 0
		}
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

// fftPadSize returns the padded transform edge for the full-image FFT mode.
func fftPadSize(cfg ConvConfig) (pR, pC int) {
	cfg = cfg.withDefaults()
	return fft.NextPow2(cfg.H + 2*cfg.PadH + cfg.FH - 1), fft.NextPow2(cfg.W + 2*cfg.PadW + cfg.FW - 1)
}

// FFTWorkspaceBytes returns the device memory required by the full-image FFT
// convolution: the frequency-domain copies of the inputs, filters and outputs
// (complex64 values) scaled by the implementation's working-copy factor.
func FFTWorkspaceBytes(cfg ConvConfig) int64 {
	cfg = cfg.withDefaults()
	pR, pC := fftPadSize(cfg)
	spectra := float64(cfg.N*cfg.C+cfg.K*cfg.C+cfg.N*cfg.K) * float64(pR*pC) * 8
	return int64(spectra * fftWorkspaceFactor)
}

// FFTTilingWorkspaceBytes returns the device memory required by the FFT
// tiling mode, which transforms fixed 32×32 tiles instead of whole feature
// maps.
func FFTTilingWorkspaceBytes(cfg ConvConfig) int64 {
	cfg = cfg.withDefaults()
	tile := fftTileEdge
	spectra := float64(cfg.N*cfg.C+cfg.K*cfg.C+cfg.N*cfg.K) * float64(tile*tile) * 8
	return int64(spectra * fftWorkspaceFactor)
}

// fftCost builds the kernel sequence shared by the two FFT modes.
func fftCost(d *gpusim.Device, cfg ConvConfig, tiled bool) ([]gpusim.KernelStats, error) {
	cfg = cfg.withDefaults()
	name := "fft-conv NCHW"
	workspace := FFTWorkspaceBytes(cfg)
	pR, pC := fftPadSize(cfg)
	tiles := 1
	if tiled {
		name = "fft-tiling-conv NCHW"
		workspace = FFTTilingWorkspaceBytes(cfg)
		pR, pC = fftTileEdge, fftTileEdge
		// Each feature map is split into overlapping tiles whose usable
		// output region shrinks by the filter size (overlap-add).
		usable := fftTileEdge - cfg.FH + 1
		if usable < 1 {
			usable = 1
		}
		tiles = ceilDiv(cfg.H+2*cfg.PadH, usable) * ceilDiv(cfg.W+2*cfg.PadW, usable)
	}
	inputBytes := int64(cfg.InputShape().Elems()+cfg.OutputShape().Elems()+cfg.FilterShape().Elems()) * 4
	if !d.FitsInMemory(workspace + inputBytes) {
		return nil, &ErrOutOfMemory{Kernel: name + " " + cfg.String(), Required: workspace + inputBytes, Device: d.Name, Capacity: d.GlobalMemBytes}
	}

	points := float64(pR * pC)
	logPts := math.Log2(points)
	if logPts < 1 {
		logPts = 1
	}
	transforms := float64(cfg.N*cfg.C+cfg.K*cfg.C+cfg.N*cfg.K) * float64(tiles)
	fftFLOPs := transforms * 5 * points * logPts
	// Pointwise complex multiply-accumulate over input channels for every
	// (image, output channel, frequency) triple: 8 real FLOPs each.
	pointFLOPs := float64(cfg.N) * float64(cfg.K) * float64(cfg.C) * points * float64(tiles) * 8

	spectraBytes := transforms * points * 8

	fftStage := gpusim.KernelStats{
		Name:       name + " transforms " + cfg.String(),
		GridBlocks: int(transforms),
		Block:      gpusim.BlockResources{ThreadsPerBlock: 256, RegsPerThread: 40, SharedMemPerBlock: 8 << 10},
		Launches:   2, // forward transforms of inputs and filters
		FLOPs:      fftFLOPs,
		// Butterfly stages are latency and shuffle bound; they do not reach
		// FMA peak (batched cuFFT sustains a small fraction of peak FLOPs).
		ComputeEfficiency: fftStageEfficiency,
		DRAMReadBytes:     float64(inputBytes),
		DRAMWriteBytes:    spectraBytes,
		UsefulReadBytes:   float64(inputBytes),
		UsefulWriteBytes:  spectraBytes,
	}
	// The per-frequency batched product is a complex GEMM of (K×C)·(C×N)
	// repeated for every frequency bin: its reduction length is the channel
	// count, so it only becomes efficient once C (and the filter count) are
	// large — the same saturation behaviour as the spatial GEMM, but without
	// the batch-size penalty because the frequency bins provide parallelism.
	pointEff := fftPointwiseMaxEff *
		(float64(cfg.C) / (float64(cfg.C) + 32)) *
		(float64(cfg.K) / (float64(cfg.K) + 48))
	if pointEff > fftPointwiseMaxEff {
		pointEff = fftPointwiseMaxEff
	}
	pointStage := gpusim.KernelStats{
		Name:              name + " pointwise " + cfg.String(),
		GridBlocks:        int(points),
		Block:             gpusim.BlockResources{ThreadsPerBlock: 256, RegsPerThread: 64, SharedMemPerBlock: 16 << 10},
		Launches:          1,
		FLOPs:             pointFLOPs,
		ComputeEfficiency: pointEff,
		DRAMReadBytes:     spectraBytes,
		DRAMWriteBytes:    float64(cfg.N*cfg.K) * points * float64(tiles) * 8,
		UsefulReadBytes:   spectraBytes,
		UsefulWriteBytes:  float64(cfg.N*cfg.K) * points * float64(tiles) * 8,
	}
	inverseStage := gpusim.KernelStats{
		Name:              name + " inverse " + cfg.String(),
		GridBlocks:        cfg.N * cfg.K * tiles,
		Block:             gpusim.BlockResources{ThreadsPerBlock: 256, RegsPerThread: 40, SharedMemPerBlock: 8 << 10},
		Launches:          1,
		FLOPs:             float64(cfg.N*cfg.K*tiles) * 5 * points * logPts,
		ComputeEfficiency: fftStageEfficiency,
		DRAMReadBytes:     float64(cfg.N*cfg.K) * points * float64(tiles) * 8,
		DRAMWriteBytes:    float64(cfg.OutputShape().Elems()) * 4,
		UsefulReadBytes:   float64(cfg.N*cfg.K) * points * float64(tiles) * 8,
		UsefulWriteBytes:  float64(cfg.OutputShape().Elems()) * 4,
	}
	return []gpusim.KernelStats{fftStage, pointStage, inverseStage}, nil
}

// ConvFFTCost returns the kernel sequence of the full-image FFT convolution
// mode, or ErrOutOfMemory when the padded spectra exceed device memory.
func ConvFFTCost(d *gpusim.Device, cfg ConvConfig) ([]gpusim.KernelStats, error) {
	return fftCost(d, cfg, false)
}

// ConvFFTTilingCost returns the kernel sequence of the FFT-Tiling convolution
// mode.
func ConvFFTTilingCost(d *gpusim.Device, cfg ConvConfig) ([]gpusim.KernelStats, error) {
	return fftCost(d, cfg, true)
}
