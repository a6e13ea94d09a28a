package kernels

import (
	"fmt"

	"memcnn/internal/par"
	"memcnn/internal/tensor"
)

// Direct convolution: the cuda-convnet implementation strategy for the CHWN
// layout (Section II.B / IV.A).  Each thread block processes a tile of output
// pixels for a group of filters and a group of 32·imagesPerThread images; the
// batch dimension N is innermost in memory, so the 32 threads of a warp read
// 32 consecutive images and every global access is coalesced.  Each thread
// additionally keeps imagesPerThread images in registers, which is what makes
// the kernel's throughput so sensitive to N (Fig. 4a).
//
// The host kernels below (forward here, backward-data and backward-filter in
// backward.go, pooling in pooling.go) are the CPU rendering of that idea.
// They walk the tensors' backing slices by stride and run their innermost
// loop over a tile of laneTile "lanes" along the axis with the smaller stride
// in the tensor they read: N for CHWN (the paper's coalesced case), W for
// NCHW.  A tile of float64 accumulators lives on the stack, one filter value
// is hoisted per tap, and the loop is acc[i] += src[i] * w.
// Any layout pair works; axes that are not unit-stride just make the lanes
// strided.  Every output element still sums its taps in float64 in the fixed
// c→fh→fw order, skips out-of-range taps and rounds to float32 once, so the
// result does not depend on layout, lane axis, tile size or worker count.

// laneTile is the number of accumulators a kernel keeps live per tile.
const laneTile = 64

// strided is a tensor's backing slice with the element stride of each
// logical dimension.
type strided struct {
	data       []float32
	n, c, h, w int
}

func stridesOf(t *tensor.Tensor) strided {
	sn, sc, sh, sw := t.Shape.Strides(t.Layout)
	return strided{data: t.Data, n: sn, c: sc, h: sh, w: sw}
}

// lanesAlongN reports whether a kernel reading s runs its lanes along N
// (true) or along W (false): whichever has the smaller stride.
func (s strided) lanesAlongN() bool { return s.n < s.w }

// fmaLanes performs acc[i] += float64(src[i*srcStep]) * w for i in [0, n).
// The product of two float32 values is exact in float64, so the operand
// order inside it is immaterial.
func fmaLanes(acc []float64, src []float32, srcStep int, w float64, n int) {
	if srcStep == 1 {
		acc, src = acc[:n], src[:n]
		for i := range acc {
			acc[i] += float64(src[i]) * w
		}
		return
	}
	for i, s := 0, 0; i < n; i, s = i+1, s+srcStep {
		acc[i] += float64(src[s]) * w
	}
}

// tapRange returns the output positions [lo, hi) within [oLo, oHi) whose
// filter tap f reads input position o*stride - pad + f inside [inLo, inHi);
// there are none when lo >= hi.  oLo must not be negative.
func tapRange(f, stride, pad, inLo, inHi, oLo, oHi int) (lo, hi int) {
	first, last := inLo+pad-f, inHi-1+pad-f // bounds on o*stride
	if last < 0 {
		// Truncating division would round a negative bound up to 0.
		return oLo, oLo
	}
	if stride > 1 {
		first, last = (first+stride-1)/stride, last/stride
	}
	lo, hi = oLo, oHi
	if first > lo { // a non-positive first never exceeds oLo, however it rounds
		lo = first
	}
	if last+1 < hi {
		hi = last + 1
	}
	return lo, hi
}

// ConvDirectInto is the functional reference convolution (cross-correlation,
// as in Equation 1 of the paper).  It accepts tensors in any layout and writes
// into a caller-provided output tensor of the config's output shape; the
// arithmetic is identical regardless of layout, which is exactly the property
// the layout study relies on.  Every output element is overwritten, so the
// destination's prior contents do not matter.
//
//memcnn:noalloc
func ConvDirectInto(in, filters, out *tensor.Tensor, cfg ConvConfig) error {
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
	j := convJob{cfg: cfg, outH: cfg.OutH(), outW: cfg.OutW(),
		in: stridesOf(in), filters: stridesOf(filters), out: stridesOf(out)}
	par.Planes(cfg.K*j.outH, j, convForwardPlane)
	return nil
}

// convJob is what one plane of a direct convolution kernel needs: the layer,
// and the three tensors in the roles of the forward pass (backward-data reads
// out and writes in; backward-filter reads both and writes filters).
type convJob struct {
	cfg              ConvConfig
	outH, outW       int
	in, filters, out strided
}

// convForwardPlane computes output row (k, oh) for every image.  Lanes run
// along n with ow stepping outside them, or the other way round.
//
//memcnn:noalloc
func convForwardPlane(j convJob, p int) {
	cfg, in, out := &j.cfg, &j.in, &j.out
	k, oh := p/j.outH, p%j.outH
	alongN := in.lanesAlongN()
	lanes, others, outStep := j.outW, cfg.N, out.w
	if alongN {
		lanes, others, outStep = cfg.N, j.outW, out.n
	}
	var tile [laneTile]float64
	for o := 0; o < others; o++ {
		for l0 := 0; l0 < lanes; l0 += laneTile {
			acc := tile[:min(laneTile, lanes-l0)]
			clear(acc)
			n, ow := o, l0
			if alongN {
				n, ow = l0, o
			}
			for c := 0; c < cfg.C; c++ {
				for fh := 0; fh < cfg.FH; fh++ {
					ih := oh*cfg.StrideH - cfg.PadH + fh
					if ih < 0 || ih >= cfg.H {
						continue
					}
					inRow := in.data[n*in.n+c*in.c+ih*in.h:]
					fRow := j.filters.data[k*j.filters.n+c*j.filters.c+fh*j.filters.h:]
					for fw := 0; fw < cfg.FW; fw++ {
						w := float64(fRow[fw*j.filters.w])
						if alongN {
							if iw := ow*cfg.StrideW - cfg.PadW + fw; iw >= 0 && iw < cfg.W {
								fmaLanes(acc, inRow[iw*in.w:], in.n, w, len(acc))
							}
							continue
						}
						if lo, hi := tapRange(fw, cfg.StrideW, cfg.PadW, 0, cfg.W, ow, ow+len(acc)); lo < hi {
							fmaLanes(acc[lo-ow:], inRow[(lo*cfg.StrideW-cfg.PadW+fw)*in.w:], cfg.StrideW*in.w, w, hi-lo)
						}
					}
				}
			}
			dst := out.data[n*out.n+k*out.c+oh*out.h+ow*out.w:]
			for i, v := range acc {
				dst[i*outStep] = float32(v)
			}
		}
	}
}
