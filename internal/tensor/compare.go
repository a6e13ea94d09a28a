package tensor

import (
	"fmt"
	"math"
)

// MaxAbsDiff returns the largest absolute element-wise difference between two
// tensors at the same logical coordinate.  The tensors may use different
// layouts; they must have the same shape.
func MaxAbsDiff(a, b *Tensor) (float64, error) {
	if a.Shape != b.Shape {
		return 0, fmt.Errorf("tensor: shape mismatch %v vs %v", a.Shape, b.Shape)
	}
	s := a.Shape
	var maxDiff float64
	for n := 0; n < s.N; n++ {
		for c := 0; c < s.C; c++ {
			for h := 0; h < s.H; h++ {
				for w := 0; w < s.W; w++ {
					d := math.Abs(float64(a.At(n, c, h, w)) - float64(b.At(n, c, h, w)))
					if d > maxDiff {
						maxDiff = d
					}
				}
			}
		}
	}
	return maxDiff, nil
}

// AllClose reports whether two tensors agree element-wise within tol at every
// logical coordinate, regardless of layout.
func AllClose(a, b *Tensor, tol float64) bool {
	d, err := MaxAbsDiff(a, b)
	return err == nil && d <= tol
}

// RelClose reports whether two tensors agree within a mixed absolute/relative
// tolerance: |a-b| <= atol + rtol*|b| at every logical coordinate.  It is the
// right comparison for convolution outputs whose magnitude grows with the
// reduction length C*Fh*Fw.
func RelClose(a, b *Tensor, atol, rtol float64) bool {
	if a.Shape != b.Shape {
		return false
	}
	s := a.Shape
	for n := 0; n < s.N; n++ {
		for c := 0; c < s.C; c++ {
			for h := 0; h < s.H; h++ {
				for w := 0; w < s.W; w++ {
					av := float64(a.At(n, c, h, w))
					bv := float64(b.At(n, c, h, w))
					if math.Abs(av-bv) > atol+rtol*math.Abs(bv) {
						return false
					}
				}
			}
		}
	}
	return true
}
