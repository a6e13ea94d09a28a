// Package tensor provides the 4-D tensor data structure used throughout the
// library together with the memory layouts studied in the paper.
//
// A CNN activation tensor has four logical dimensions:
//
//	N — batch size (number of images)
//	C — number of channels / feature maps
//	H — feature map height
//	W — feature map width
//
// The same logical tensor can be linearised in memory in 4! = 24 different
// orders.  The paper's layout study (Section IV) compares the two that real
// GPU CNN libraries use, and they are the two this library supports:
//
//	NCHW — Caffe / cuDNN: W is the fastest-varying dimension.
//	CHWN — cuda-convnet:  N is the fastest-varying dimension.
//
// The layout determines the memory access pattern of every GPU kernel that
// touches the tensor and therefore its memory efficiency.
package tensor

import (
	"fmt"
)

// Layout identifies the linearisation order of a 4-D tensor.
type Layout int

// The memory layouts supported by the library.  The name lists the dimensions
// from slowest-varying (largest stride) to fastest-varying (stride 1).
const (
	NCHW Layout = iota // Caffe / cuDNN default: row-major over N, C, H, W.
	CHWN               // cuda-convnet: batch dimension innermost.
	numLayouts
)

// Layouts lists every supported layout, in a stable order.
var Layouts = []Layout{NCHW, CHWN}

// String returns the conventional name of the layout.
func (l Layout) String() string {
	switch l {
	case NCHW:
		return "NCHW"
	case CHWN:
		return "CHWN"
	default:
		return fmt.Sprintf("Layout(%d)", int(l))
	}
}

// Valid reports whether l is one of the supported layouts.
func (l Layout) Valid() bool { return l >= 0 && l < numLayouts }

// Shape describes the logical extent of a 4-D tensor, independent of layout.
type Shape struct {
	N int // batch size
	C int // channels
	H int // height
	W int // width
}

// Elems returns the number of elements in the tensor.
func (s Shape) Elems() int { return s.N * s.C * s.H * s.W }

// Bytes returns the size of the tensor in bytes assuming float32 storage.
func (s Shape) Bytes() int64 { return int64(s.Elems()) * 4 }

// Valid reports whether every dimension is positive.
func (s Shape) Valid() bool { return s.N > 0 && s.C > 0 && s.H > 0 && s.W > 0 }

// String formats the shape as "N×C×H×W".
func (s Shape) String() string {
	return fmt.Sprintf("%dx%dx%dx%d", s.N, s.C, s.H, s.W)
}

// Strides returns the element stride of each logical dimension (N, C, H, W)
// for the given layout.  The stride of a dimension is the distance, in
// elements, between two values that are adjacent along that dimension.
func (s Shape) Strides(l Layout) (sn, sc, sh, sw int) {
	switch l {
	case NCHW:
		sw = 1
		sh = s.W
		sc = s.H * s.W
		sn = s.C * s.H * s.W
	case CHWN:
		sn = 1
		sw = s.N
		sh = s.W * s.N
		sc = s.H * s.W * s.N
	default:
		panic(fmt.Sprintf("tensor: invalid layout %v", l))
	}
	return sn, sc, sh, sw
}

// SameOrder reports whether layouts a and b store a tensor of this shape in
// the same order: every dimension longer than one has the same stride in
// both, as NCHW and CHWN do for a single image.
func (s Shape) SameOrder(a, b Layout) bool {
	an, ac, ah, aw := s.Strides(a)
	bn, bc, bh, bw := s.Strides(b)
	return (s.N == 1 || an == bn) && (s.C == 1 || ac == bc) && (s.H == 1 || ah == bh) && (s.W == 1 || aw == bw)
}

// Offset returns the linear element offset of logical coordinate (n,c,h,w)
// under layout l.  It does not bounds-check; callers that need checking use
// Tensor.At / Tensor.Set.
func (s Shape) Offset(l Layout, n, c, h, w int) int {
	sn, sc, sh, sw := s.Strides(l)
	return n*sn + c*sc + h*sh + w*sw
}

// Coord inverts Offset: it maps a linear offset under layout l back to the
// logical coordinate (n,c,h,w).
func (s Shape) Coord(l Layout, off int) (n, c, h, w int) {
	switch l {
	case NCHW:
		w = off % s.W
		off /= s.W
		h = off % s.H
		off /= s.H
		c = off % s.C
		n = off / s.C
	case CHWN:
		n = off % s.N
		off /= s.N
		w = off % s.W
		off /= s.W
		h = off % s.H
		c = off / s.H
	default:
		panic(fmt.Sprintf("tensor: invalid layout %v", l))
	}
	return n, c, h, w
}

// Tensor is a dense 4-D array of float32 values stored in a single backing
// slice according to a Layout.
type Tensor struct {
	Shape  Shape
	Layout Layout
	Data   []float32
}

// New allocates a zero-filled tensor with the given shape and layout.
func New(shape Shape, layout Layout) *Tensor {
	if !shape.Valid() {
		panic(fmt.Sprintf("tensor: invalid shape %v", shape))
	}
	if !layout.Valid() {
		panic(fmt.Sprintf("tensor: invalid layout %v", layout))
	}
	return &Tensor{
		Shape:  shape,
		Layout: layout,
		Data:   make([]float32, shape.Elems()),
	}
}

// NewFrom wraps an existing backing slice.  The slice length must match the
// shape element count exactly.
func NewFrom(shape Shape, layout Layout, data []float32) (*Tensor, error) {
	if !shape.Valid() {
		return nil, fmt.Errorf("tensor: invalid shape %v", shape)
	}
	if !layout.Valid() {
		return nil, fmt.Errorf("tensor: invalid layout %v", layout)
	}
	if len(data) != shape.Elems() {
		return nil, fmt.Errorf("tensor: data length %d does not match shape %v (%d elements)",
			len(data), shape, shape.Elems())
	}
	return &Tensor{Shape: shape, Layout: layout, Data: data}, nil
}

// At returns the element at logical coordinate (n,c,h,w).
func (t *Tensor) At(n, c, h, w int) float32 {
	t.check(n, c, h, w)
	return t.Data[t.Shape.Offset(t.Layout, n, c, h, w)]
}

// Set stores v at logical coordinate (n,c,h,w).
func (t *Tensor) Set(n, c, h, w int, v float32) {
	t.check(n, c, h, w)
	t.Data[t.Shape.Offset(t.Layout, n, c, h, w)] = v
}

func (t *Tensor) check(n, c, h, w int) {
	s := t.Shape
	if n < 0 || n >= s.N || c < 0 || c >= s.C || h < 0 || h >= s.H || w < 0 || w >= s.W {
		panic(fmt.Sprintf("tensor: index (%d,%d,%d,%d) out of range for shape %v", n, c, h, w, s))
	}
}

// Clone returns a deep copy of the tensor.
func (t *Tensor) Clone() *Tensor {
	out := &Tensor{Shape: t.Shape, Layout: t.Layout, Data: make([]float32, len(t.Data))}
	copy(out.Data, t.Data)
	return out
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// String summarises the tensor (it does not print the data).
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor{%v %v %d elems}", t.Shape, t.Layout, t.Shape.Elems())
}
