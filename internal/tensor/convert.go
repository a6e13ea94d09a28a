package tensor

import (
	"fmt"

	"memcnn/internal/par"
)

// Convert returns a copy of t re-linearised under the target layout.  If the
// target layout equals the tensor's current layout the result is still a
// fresh copy, so callers may always mutate the result freely.
//
// This is the functional reference for the GPU layout-transformation kernels
// modelled in internal/kernels; the kernel implementations are tested against
// it.
func Convert(t *Tensor, target Layout) *Tensor {
	if !target.Valid() {
		panic(fmt.Sprintf("tensor: invalid target layout %v", target))
	}
	out := New(t.Shape, target)
	if target == t.Layout {
		copy(out.Data, t.Data)
		return out
	}
	convert(t, out)
	return out
}

// ConvertInto re-linearises t into dst, which must have the same shape.
// It is the allocation-free variant of Convert.  Two layouts that store the
// shape in the same order (Shape.SameOrder) are a plain copy.
func ConvertInto(t, dst *Tensor) error {
	if t.Shape != dst.Shape {
		return fmt.Errorf("tensor: convert shape mismatch %v vs %v", t.Shape, dst.Shape)
	}
	if t.Shape.SameOrder(t.Layout, dst.Layout) {
		copy(dst.Data, t.Data)
		return nil
	}
	convert(t, dst)
	return nil
}

// convert walks the logical coordinate space in the destination layout's
// linear order, one plane per index of the slowest-varying destination
// dimension, so each plane writes a contiguous region of dst.Data.  Writing
// sequentially in the destination is the cache-friendly direction on a CPU,
// mirroring the "coalesced writes" goal of the GPU transpose kernel.
func convert(src, dst *Tensor) {
	outer := src.Shape.N
	if dst.Layout == CHWN {
		outer = src.Shape.C
	}
	par.Planes(outer, convertJob{src, dst}, convertPlane)
}

type convertJob struct{ src, dst *Tensor }

// convertPlane converts index i of the destination's outermost logical
// dimension.
func convertPlane(j convertJob, i int) {
	src, dst := j.src, j.dst
	s := src.Shape
	sn, sc, sh, sw := s.Strides(src.Layout)
	dn, dc, dh, dw := s.Strides(dst.Layout)
	switch dst.Layout {
	case NCHW:
		for c := 0; c < s.C; c++ {
			for h := 0; h < s.H; h++ {
				sBase := i*sn + c*sc + h*sh
				dBase := i*dn + c*dc + h*dh
				for w := 0; w < s.W; w++ {
					dst.Data[dBase+w*dw] = src.Data[sBase+w*sw]
				}
			}
		}
	case CHWN:
		for h := 0; h < s.H; h++ {
			for w := 0; w < s.W; w++ {
				sBase := i*sc + h*sh + w*sw
				dBase := i*dc + h*dh + w*dw
				for n := 0; n < s.N; n++ {
					dst.Data[dBase+n*dn] = src.Data[sBase+n*sn]
				}
			}
		}
	}
}
