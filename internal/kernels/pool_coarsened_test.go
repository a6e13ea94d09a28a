package kernels

import (
	"fmt"
	"math"

	"memcnn/internal/par"
	"memcnn/internal/tensor"
)

// PoolCoarsened is the functional counterpart of the register-reuse optimised
// pooling kernel (Section V.A): each logical "thread" computes an
// expandH×expandW tile of output elements and loads the union of their input
// windows exactly once.  No program runs it (ROADMAP item 3 measures whether
// the idea pays on a CPU); it stays here as the subject of the identity tests
// against Pool, so that item can lift it back.
func PoolCoarsened(in *tensor.Tensor, cfg PoolConfig, expandH, expandW int) (*tensor.Tensor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if expandH <= 0 || expandW <= 0 {
		return nil, fmt.Errorf("kernels: expansion factors must be positive (%d, %d)", expandH, expandW)
	}
	if in.Shape != cfg.InputShape() {
		return nil, fmt.Errorf("kernels: pool input shape %v does not match config %v", in.Shape, cfg.InputShape())
	}
	out := tensor.New(cfg.OutputShape(), in.Layout)
	par.Planes(cfg.N*cfg.C, poolCoarsenedJob{in: in, out: out, cfg: cfg, expandH: expandH, expandW: expandW}, poolCoarsenedPlane)
	return out, nil
}

type poolCoarsenedJob struct {
	in, out          *tensor.Tensor
	cfg              PoolConfig
	expandH, expandW int
}

// poolCoarsenedPlane computes feature map (n, c) = (p/C, p%C) tile by tile.
func poolCoarsenedPlane(j poolCoarsenedJob, p int) {
	cfg, n, c := j.cfg, p/j.cfg.C, p%j.cfg.C
	outH, outW := cfg.OutH(), cfg.OutW()
	unionH := (j.expandH-1)*cfg.Stride + cfg.Window
	unionW := (j.expandW-1)*cfg.Stride + cfg.Window
	// window caches the union of input windows of one output tile, standing
	// in for the per-thread register file.
	window := make([]float32, unionH*unionW)
	for ohBase := 0; ohBase < outH; ohBase += j.expandH {
		for owBase := 0; owBase < outW; owBase += j.expandW {
			// Load the union once.
			h0, w0 := ohBase*cfg.Stride, owBase*cfg.Stride
			for y := 0; y < unionH; y++ {
				for x := 0; x < unionW; x++ {
					ih, iw := h0+y, w0+x
					if ih < cfg.H && iw < cfg.W {
						window[y*unionW+x] = j.in.At(n, c, ih, iw)
					} else {
						window[y*unionW+x] = float32(math.Inf(-1))
					}
				}
			}
			// Produce the tile from the cached union.
			for dy := 0; dy < j.expandH && ohBase+dy < outH; dy++ {
				for dx := 0; dx < j.expandW && owBase+dx < outW; dx++ {
					j.out.Set(n, c, ohBase+dy, owBase+dx, poolFromCache(window, unionW, cfg, dy, dx))
				}
			}
		}
	}
}

func poolFromCache(window []float32, unionW int, cfg PoolConfig, dy, dx int) float32 {
	y0, x0 := dy*cfg.Stride, dx*cfg.Stride
	switch cfg.Op {
	case MaxPool:
		best := window[y0*unionW+x0]
		for y := 0; y < cfg.Window; y++ {
			for x := 0; x < cfg.Window; x++ {
				if v := window[(y0+y)*unionW+(x0+x)]; v > best {
					best = v
				}
			}
		}
		return best
	default:
		var sum float64
		for y := 0; y < cfg.Window; y++ {
			for x := 0; x < cfg.Window; x++ {
				sum += float64(window[(y0+y)*unionW+(x0+x)])
			}
		}
		return float32(sum / float64(cfg.Window*cfg.Window))
	}
}
