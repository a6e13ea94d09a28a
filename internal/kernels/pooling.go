package kernels

import (
	"fmt"

	"memcnn/internal/gpusim"
	"memcnn/internal/par"
	"memcnn/internal/tensor"
)

// Pooling kernels (Sections IV.B and V.A).  Pooling is memory bound: its
// performance is decided by how the window loads map onto memory transactions
// (layout) and by how much of the overlapping-window redundancy is removed
// (register-level reuse / thread coarsening).

// PoolInto is the functional pooling operator: it writes into a
// caller-provided output tensor of the config's output shape (any layout).
// The layouts do not change the values, only the memory behaviour, which is
// the whole point of the paper's Section IV.B.  Every output element is
// overwritten, so the destination's prior contents do not matter.
//
//memcnn:noalloc
func PoolInto(in, out *tensor.Tensor, cfg PoolConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if in.Shape != cfg.InputShape() {
		return fmt.Errorf("kernels: pool input shape %v does not match config %v", in.Shape, cfg.InputShape())
	}
	if out.Shape != cfg.OutputShape() {
		return fmt.Errorf("kernels: pool output shape %v does not match config %v", out.Shape, cfg.OutputShape())
	}
	j := poolJob{cfg: cfg, outH: cfg.OutH(), outW: cfg.OutW(), in: stridesOf(in), out: stridesOf(out)}
	par.Planes(cfg.C*j.outH, j, poolPlane)
	return nil
}

type poolJob struct {
	cfg        PoolConfig
	outH, outW int
	in, out    strided
}

// poolPlane computes output row (c, oh) for every image with the lane scheme
// of the direct convolution (conv_direct.go): a tile of running maxima, or of
// float64 sums taken in (y, x) order, along n or along ow.
//
//memcnn:noalloc
func poolPlane(j poolJob, p int) {
	cfg, in, out := &j.cfg, &j.in, &j.out
	c, oh := p/j.outH, p%j.outH
	alongN := in.lanesAlongN()
	lanes, others, inStep, outStep := j.outW, cfg.N, cfg.Stride*in.w, out.w
	if alongN {
		lanes, others, inStep, outStep = cfg.N, j.outW, in.n, out.n
	}
	area := float64(cfg.Window * cfg.Window)
	var sums [laneTile]float64
	var bests [laneTile]float32
	for o := 0; o < others; o++ {
		for l0 := 0; l0 < lanes; l0 += laneTile {
			m := min(laneTile, lanes-l0)
			n, ow := o, l0
			if alongN {
				n, ow = l0, o
			}
			win := in.data[n*in.n+c*in.c+oh*cfg.Stride*in.h+ow*cfg.Stride*in.w:]
			dst := out.data[n*out.n+c*out.c+oh*out.h+ow*out.w:]
			if cfg.Op == MaxPool {
				best := bests[:m]
				for i := range best {
					best[i] = win[i*inStep]
				}
				for y := 0; y < cfg.Window; y++ {
					for x := 0; x < cfg.Window; x++ {
						maxLanes(best, win[y*in.h+x*in.w:], inStep)
					}
				}
				for i, v := range best {
					dst[i*outStep] = v
				}
				continue
			}
			sum := sums[:m]
			for i := range sum {
				sum[i] = 0
			}
			for y := 0; y < cfg.Window; y++ {
				for x := 0; x < cfg.Window; x++ {
					fmaLanes(sum, 1, win[y*in.h+x*in.w:], inStep, 1, m)
				}
			}
			for i, v := range sum {
				dst[i*outStep] = float32(v / area)
			}
		}
	}
}

// maxLanes performs best[i] = max(best[i], src[i*srcStep]), keeping the
// earlier value on ties and NaNs as a serial v > best scan does.
func maxLanes(best, src []float32, srcStep int) {
	if srcStep == 1 {
		for i, v := range src[:len(best)] {
			if v > best[i] {
				best[i] = v
			}
		}
		return
	}
	for i := range best {
		if v := src[i*srcStep]; v > best[i] {
			best[i] = v
		}
	}
}

// loadRedundancy returns how many times each input element is read by a naive
// one-output-per-thread pooling kernel (window loads divided by input size).
func loadRedundancy(cfg PoolConfig) float64 {
	loads := float64(cfg.OutH()) * float64(cfg.OutW()) * float64(cfg.Window*cfg.Window)
	return loads / (float64(cfg.H) * float64(cfg.W))
}

// poolL2Filter is the fraction of redundant re-loads that the L2 cache
// absorbs for the CHWN kernel, whose warp works through a feature-map slice
// with good temporal locality.
const poolL2Filter = 0.5

// PoolCHWNCost models the cuda-convnet pooling kernel on the CHWN layout:
// the batch dimension is innermost, so every window load of a warp is fully
// coalesced; the only inefficiency left is the redundant loading of
// overlapping windows, partially filtered by L2.
func PoolCHWNCost(d *gpusim.Device, cfg PoolConfig) gpusim.KernelStats {
	inBytes := float64(cfg.InputShape().Elems()) * 4
	outBytes := float64(cfg.OutputShape().Elems()) * 4

	red := loadRedundancy(cfg)
	effRed := 1 + (red-1)*(1-poolL2Filter)
	if effRed < 1 {
		effRed = 1
	}
	read := inBytes * effRed

	outputs := cfg.OutputShape().Elems()
	return gpusim.KernelStats{
		Name:              fmt.Sprintf("pool CHWN %s", cfg.String()),
		GridBlocks:        ceilDiv(outputs, 128),
		Block:             gpusim.BlockResources{ThreadsPerBlock: 128, RegsPerThread: 24},
		Launches:          1,
		FLOPs:             cfg.FLOPs(),
		ComputeEfficiency: 0.5,
		DRAMReadBytes:     read,
		DRAMWriteBytes:    outBytes,
		UsefulReadBytes:   inBytes,
		UsefulWriteBytes:  outBytes,
	}
}

// PoolNCHWVariant selects which NCHW library kernel is modelled.
type PoolNCHWVariant int

// The two NCHW pooling implementations the paper measures.
const (
	PoolCaffe PoolNCHWVariant = iota // Caffe: plain strided kernel
	PoolCuDNN                        // cuDNN: strided kernel + backward mask write
)

// PoolNCHWCost models the Caffe/cuDNN pooling kernel on the NCHW layout: one
// thread per output element with the output width innermost, so consecutive
// threads read input addresses strided by the pooling stride.  The strided
// warp accesses over-fetch (Section IV.B), and the overlapping-window
// redundancy is not captured by any on-chip reuse.
func PoolNCHWCost(d *gpusim.Device, cfg PoolConfig, variant PoolNCHWVariant) gpusim.KernelStats {
	inBytes := float64(cfg.InputShape().Elems()) * 4
	outBytes := float64(cfg.OutputShape().Elems()) * 4

	// Representative warp: 32 consecutive output positions along the output
	// width (wrapping to the next row when the feature map is narrow); each
	// window tap issues one such access.
	eff := nchwPoolWarpEfficiency(d, cfg)

	red := loadRedundancy(cfg)
	// The NCHW kernel walks whole feature maps before returning to nearby
	// rows, so only a small part of the redundancy hits in L2.
	effRed := 1 + (red-1)*0.85
	read := inBytes * effRed / eff

	write := outBytes
	name := "pool NCHW (Caffe)"
	if variant == PoolCuDNN {
		// cuDNN's kernel also emits the argmax mask used by the backward
		// pass, doubling the store traffic.
		write *= 2
		name = "pool NCHW (cuDNN)"
	}
	outputs := cfg.OutputShape().Elems()
	return gpusim.KernelStats{
		Name:              fmt.Sprintf("%s %s", name, cfg.String()),
		GridBlocks:        ceilDiv(outputs, 256),
		Block:             gpusim.BlockResources{ThreadsPerBlock: 256, RegsPerThread: 28},
		Launches:          1,
		FLOPs:             cfg.FLOPs(),
		ComputeEfficiency: 0.5,
		DRAMReadBytes:     read,
		DRAMWriteBytes:    write,
		UsefulReadBytes:   inBytes,
		UsefulWriteBytes:  outBytes,
	}
}

// nchwPoolWarpEfficiency builds the real address pattern of one warp of the
// NCHW pooling kernel and runs it through the coalescer.
func nchwPoolWarpEfficiency(d *gpusim.Device, cfg PoolConfig) float64 {
	outW := cfg.OutW()
	addrs := make([]int64, d.WarpSize)
	for t := 0; t < d.WarpSize; t++ {
		oh := t / outW
		ow := t % outW
		// Input address of the window origin for this output element.
		addrs[t] = int64(oh*cfg.Stride*cfg.W+ow*cfg.Stride) * 4
	}
	w := gpusim.WarpAccess{Addresses: addrs, Bytes: 4}
	eff := w.Efficiency(d.TransactionBytes)
	if eff <= 0 {
		return 1
	}
	return eff
}

// PoolExpansion describes the working-set expansion (thread coarsening)
// factors of the optimised CHWN pooling kernel of Section V.A.
type PoolExpansion struct {
	H int
	W int
}

// Outputs returns the number of output elements one thread produces.
func (e PoolExpansion) Outputs() int { return e.H * e.W }

// poolBaseRegs is the register demand of the un-coarsened pooling kernel.
const poolBaseRegs = 20

// PoolCoarsenedRegisters returns the per-thread register demand of the
// coarsened kernel: the base working set plus the cached union of input
// windows.
func PoolCoarsenedRegisters(cfg PoolConfig, e PoolExpansion) int {
	unionH := (e.H-1)*cfg.Stride + cfg.Window
	unionW := (e.W-1)*cfg.Stride + cfg.Window
	regs := poolBaseRegs + unionH*unionW + e.Outputs()
	if regs > 255 {
		regs = 255
	}
	return regs
}

// PoolCHWNCoarsenedCost models the optimised pooling kernel: CHWN layout plus
// per-thread working-set expansion.  Each thread loads the union of the
// windows of its output tile once, removing the intra-tile redundant loads;
// pushing the expansion too far raises register pressure until spills and
// lost occupancy take the gains back, which is the trade-off the auto-tuner
// of internal/autotune searches.
func PoolCHWNCoarsenedCost(d *gpusim.Device, cfg PoolConfig, e PoolExpansion) gpusim.KernelStats {
	if e.H <= 0 {
		e.H = 1
	}
	if e.W <= 0 {
		e.W = 1
	}
	inBytes := float64(cfg.InputShape().Elems()) * 4
	outBytes := float64(cfg.OutputShape().Elems()) * 4

	// Per-tile loads: the union of the tile's windows, loaded once.
	unionH := (e.H-1)*cfg.Stride + cfg.Window
	unionW := (e.W-1)*cfg.Stride + cfg.Window
	tilesH := ceilDiv(cfg.OutH(), e.H)
	tilesW := ceilDiv(cfg.OutW(), e.W)
	loadsPerPlane := float64(tilesH*tilesW) * float64(unionH*unionW)
	red := loadsPerPlane / (float64(cfg.H) * float64(cfg.W))
	if red < 1 {
		red = 1
	}
	effRed := 1 + (red-1)*(1-poolL2Filter)
	read := inBytes * effRed

	regs := PoolCoarsenedRegisters(cfg, e)
	// Register spills beyond the 63-register sweet spot cost local-memory
	// traffic proportional to the spilled working set.
	var spillBytes float64
	if regs > 63 {
		spillTiles := float64(cfg.N * cfg.C * tilesH * tilesW)
		spillBytes = spillTiles * float64(regs-63) * 4 * 2 // store + reload
	}

	outputs := cfg.OutputShape().Elems()
	threads := ceilDiv(outputs, e.Outputs())
	return gpusim.KernelStats{
		Name:              fmt.Sprintf("pool CHWN coarsened %dx%d %s", e.H, e.W, cfg.String()),
		GridBlocks:        ceilDiv(threads, 128),
		Block:             gpusim.BlockResources{ThreadsPerBlock: 128, RegsPerThread: regs},
		Launches:          1,
		FLOPs:             cfg.FLOPs(),
		ComputeEfficiency: 0.5,
		DRAMReadBytes:     read + spillBytes,
		DRAMWriteBytes:    outBytes,
		UsefulReadBytes:   inBytes,
		UsefulWriteBytes:  outBytes,
	}
}

// PoolCoarsenedTimeUS returns the modeled time on d of the coarsened kernel
// as a function of the expansion: the profiler internal/autotune's search
// minimises.
func PoolCoarsenedTimeUS(d *gpusim.Device, cfg PoolConfig) func(PoolExpansion) float64 {
	return func(e PoolExpansion) float64 {
		return gpusim.EstimateTime(d, PoolCHWNCoarsenedCost(d, cfg, e)).TotalUS
	}
}
