package kernels

import (
	"fmt"

	"memcnn/internal/par"
	"memcnn/internal/tensor"
)

// Pooling kernels (Sections IV.B and V.A).  Pooling is memory bound: its
// performance is decided by how the window loads map onto memory transactions
// (layout) and by register-level reuse, a window's partial result held in
// registers instead of going back to memory.  On a CPU that is max pooling's
// vector body: 8 unit-stride lanes (CHWN's images) load each tap as one
// vector and keep their maxima in one register across the window.

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
// float64 sums taken in (y, x) order, along n or along ow.  A max tile
// unit-stride in and out goes to maxChunks first: it writes the first k lanes,
// whole 8-lane chunks, with the bits of the v > best scan below and returns k.
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
				if inStep == 1 && outStep == 1 && m >= 8 {
					k := maxChunks(win, dst, m, cfg.Window, in.h, in.w)
					if win, dst, m = win[k:], dst[k:], m-k; m == 0 {
						continue
					}
				}
				best := bests[:m]
				for i := range best {
					best[i] = win[i*inStep]
				}
				for y := 0; y < cfg.Window; y++ {
					for x := 0; x < cfg.Window; x++ {
						tap := win[y*in.h+x*in.w:]
						if inStep == 1 { // a tenth faster than the strided scan at N = 4 in CHWN
							for i, v := range tap[:len(best)] {
								if v > best[i] {
									best[i] = v
								}
							}
							continue
						}
						for i := range best {
							if v := tap[i*inStep]; v > best[i] {
								best[i] = v
							}
						}
					}
				}
				for i, v := range best {
					dst[i*outStep] = v
				}
				continue
			}
			sum := sums[:m]
			clear(sum)
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

// PoolExpansion describes the working-set expansion (thread coarsening)
// factors of the optimised CHWN pooling kernel of Section V.A.
type PoolExpansion struct {
	H int
	W int
}

// Outputs returns the number of output elements one thread produces.
func (e PoolExpansion) Outputs() int { return e.H * e.W }
