// Package kernels contains the host kernels of the layers the paper studies:
// the direct, im2col+GEMM and FFT convolutions and their gradients, pooling,
// softmax and the packed GEMM core they build on.  Every kernel runs on the
// host CPU in any data layout, writes into caller-provided storage, splits its
// work through internal/par and fixes its accumulation order, so its results
// are bit-identical across layouts and worker counts.  It holds the layer
// configurations (ConvConfig, PoolConfig, SoftmaxConfig) too.  What a kernel
// would cost on the paper's GPUs is internal/gpusim's question, not this
// package's: nothing here prices anything.
package kernels

import (
	"fmt"

	"memcnn/internal/tensor"
)

// ConvConfig describes one convolutional layer in the notation of the paper's
// Table 1: a batch of N images with C input feature maps of size H×W is
// convolved with K filters of size FH×FW at the given stride, producing K
// output feature maps of size OutH×OutW per image.
type ConvConfig struct {
	N  int // batch size (Ni)
	C  int // input channels (Ci)
	H  int // input height
	W  int // input width
	K  int // output channels (Co)
	FH int // filter height
	FW int // filter width

	StrideH int // vertical stride (defaults to 1)
	StrideW int // horizontal stride (defaults to 1)
	PadH    int // vertical zero padding
	PadW    int // horizontal zero padding
}

// WithDefaults returns a copy with zero strides replaced by 1.
func (c ConvConfig) WithDefaults() ConvConfig {
	if c.StrideH == 0 {
		c.StrideH = 1
	}
	if c.StrideW == 0 {
		c.StrideW = 1
	}
	return c
}

// Validate reports whether the configuration describes a computable layer.
func (c ConvConfig) Validate() error {
	c = c.WithDefaults()
	switch {
	case c.N <= 0 || c.C <= 0 || c.H <= 0 || c.W <= 0:
		return fmt.Errorf("kernels: conv input dims must be positive: %+v", c)
	case c.K <= 0 || c.FH <= 0 || c.FW <= 0:
		return fmt.Errorf("kernels: conv filter dims must be positive: %+v", c)
	case c.StrideH <= 0 || c.StrideW <= 0:
		return fmt.Errorf("kernels: conv strides must be positive: %+v", c)
	case c.PadH < 0 || c.PadW < 0:
		return fmt.Errorf("kernels: conv padding must be non-negative: %+v", c)
	case c.H+2*c.PadH < c.FH || c.W+2*c.PadW < c.FW:
		return fmt.Errorf("kernels: filter larger than padded input: %+v", c)
	}
	return nil
}

// OutH returns the output feature-map height.
func (c ConvConfig) OutH() int {
	c = c.WithDefaults()
	return (c.H+2*c.PadH-c.FH)/c.StrideH + 1
}

// OutW returns the output feature-map width.
func (c ConvConfig) OutW() int {
	c = c.WithDefaults()
	return (c.W+2*c.PadW-c.FW)/c.StrideW + 1
}

// InputShape returns the logical shape of the layer input.
func (c ConvConfig) InputShape() tensor.Shape {
	return tensor.Shape{N: c.N, C: c.C, H: c.H, W: c.W}
}

// OutputShape returns the logical shape of the layer output.
func (c ConvConfig) OutputShape() tensor.Shape {
	return tensor.Shape{N: c.N, C: c.K, H: c.OutH(), W: c.OutW()}
}

// FilterShape returns the shape of the filter bank (stored as N=K, C=C).
func (c ConvConfig) FilterShape() tensor.Shape {
	return tensor.Shape{N: c.K, C: c.C, H: c.FH, W: c.FW}
}

// FLOPs returns the arithmetic work of the layer counting one multiply and
// one add per filter tap.
func (c ConvConfig) FLOPs() float64 {
	return 2 * float64(c.N) * float64(c.K) * float64(c.OutH()) * float64(c.OutW()) *
		float64(c.C) * float64(c.FH) * float64(c.FW)
}

// ReductionLength returns C*FH*FW, the K dimension of the equivalent GEMM and
// the length of the inner accumulation loop of the direct convolution.
func (c ConvConfig) ReductionLength() int { return c.C * c.FH * c.FW }

// String summarises the layer the way the paper's Table 1 does.
func (c ConvConfig) String() string {
	c = c.WithDefaults()
	return fmt.Sprintf("conv N=%d C=%d H/W=%dx%d K=%d F=%dx%d S=%d", c.N, c.C, c.H, c.W, c.K, c.FH, c.FW, c.StrideH)
}

// PoolConfig describes one pooling layer: a Window×Window region is reduced
// to one value, windows advance by Stride.  Stride < Window is the overlapped
// pooling case whose redundant loads Section V.A optimises.
type PoolConfig struct {
	N      int
	C      int
	H      int
	W      int
	Window int
	Stride int
}

// Validate reports whether the configuration is computable.
func (c PoolConfig) Validate() error {
	switch {
	case c.N <= 0 || c.C <= 0 || c.H <= 0 || c.W <= 0:
		return fmt.Errorf("kernels: pool input dims must be positive: %+v", c)
	case c.Window <= 0 || c.Stride <= 0:
		return fmt.Errorf("kernels: pool window and stride must be positive: %+v", c)
	case c.Window > c.H || c.Window > c.W:
		return fmt.Errorf("kernels: pool window larger than input: %+v", c)
	}
	return nil
}

// Overlapped reports whether successive pooling windows share input elements.
func (c PoolConfig) Overlapped() bool { return c.Stride < c.Window }

// OutH returns the output height.
func (c PoolConfig) OutH() int { return (c.H-c.Window)/c.Stride + 1 }

// OutW returns the output width.
func (c PoolConfig) OutW() int { return (c.W-c.Window)/c.Stride + 1 }

// InputShape returns the logical input shape.
func (c PoolConfig) InputShape() tensor.Shape {
	return tensor.Shape{N: c.N, C: c.C, H: c.H, W: c.W}
}

// OutputShape returns the logical output shape.
func (c PoolConfig) OutputShape() tensor.Shape {
	return tensor.Shape{N: c.N, C: c.C, H: c.OutH(), W: c.OutW()}
}

// FLOPs returns the arithmetic work (one compare or add per window element).
func (c PoolConfig) FLOPs() float64 {
	return float64(c.N) * float64(c.C) * float64(c.OutH()) * float64(c.OutW()) *
		float64(c.Window) * float64(c.Window)
}

// String summarises the layer.
func (c PoolConfig) String() string {
	kind := "non-overlapped"
	if c.Overlapped() {
		kind = "overlapped"
	}
	return fmt.Sprintf("pool(max) N=%d C=%d H/W=%dx%d win=%d stride=%d (%s)",
		c.N, c.C, c.H, c.W, c.Window, c.Stride, kind)
}

// SoftmaxConfig describes a classifier layer: N images, Classes categories.
type SoftmaxConfig struct {
	N       int
	Classes int
}

// Validate reports whether the configuration is computable.
func (c SoftmaxConfig) Validate() error {
	if c.N <= 0 || c.Classes <= 0 {
		return fmt.Errorf("kernels: softmax dims must be positive: %+v", c)
	}
	return nil
}

// Elems returns the matrix element count N*Classes.
func (c SoftmaxConfig) Elems() int { return c.N * c.Classes }

// Bytes returns the float32 matrix size in bytes.
func (c SoftmaxConfig) Bytes() float64 { return float64(c.Elems()) * 4 }

// String summarises the layer the way Fig. 13 labels its x axis (batch/classes).
func (c SoftmaxConfig) String() string { return fmt.Sprintf("softmax %d/%d", c.N, c.Classes) }
