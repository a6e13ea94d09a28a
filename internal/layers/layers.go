// Package layers provides the CNN layer abstraction that networks are built
// from: convolution, pooling, softmax, fully-connected, ReLU and LRN layers.
// There are three interfaces.  Layer is what every layer is:
//
//   - a forward contract keyed by (algorithm, layout): WorkspaceElems says
//     how much scratch a kernel needs — or that the layer has no such kernel
//     — and ForwardInto runs it into caller-provided output and scratch.
//     Compilers ask once and plan the scratch; the package-level Forward
//     helper asks and allocates, which is the functional forward the
//     examples and the correctness references use;
//   - a GPU cost query for a given data layout and implementation choice,
//     returning the kernel sequence modelled by internal/kernels.
//
// BackwardLayer adds the input gradient and TrainableLayer the parameter
// gradient and SGD update (backward.go).  A new convolution algorithm is a
// kernel in internal/kernels plus one case in Conv.WorkspaceElems and
// Conv.ForwardInto; nothing that runs layers needs to hear of it.
//
// The separation mirrors the paper's experimental set-up: the layer's values
// do not depend on layout or implementation, only its memory behaviour does.
package layers

import (
	"fmt"
	"sync"

	"memcnn/internal/gpusim"
	"memcnn/internal/kernels"
	"memcnn/internal/tensor"
)

// ConvImpl selects the convolution implementation used for a cost query.
type ConvImpl int

// Convolution implementation choices (Section II.B).
const (
	// ConvAuto picks the conventional implementation for the layout: direct
	// convolution for CHWN, the best available NCHW mode for NCHW.
	ConvAuto ConvImpl = iota
	// ConvDirectImpl is the cuda-convnet direct convolution (CHWN only).
	ConvDirectImpl
	// ConvGemmImpl is the Caffe/cuDNN im2col + GEMM mode (NCHW only).
	ConvGemmImpl
	// ConvFFTImpl is the cuDNN FFT mode (NCHW only); it can fail with
	// ErrOutOfMemory.
	ConvFFTImpl
	// ConvFFTTilingImpl is the cuDNN FFT-Tiling mode (NCHW only).
	ConvFFTTilingImpl
	// ConvBestNCHW cherry-picks the fastest NCHW mode that fits in memory,
	// the policy of the paper's "cuDNN-Best" configuration.
	ConvBestNCHW
)

// String names the implementation.
func (i ConvImpl) String() string {
	switch i {
	case ConvAuto:
		return "auto"
	case ConvDirectImpl:
		return "direct"
	case ConvGemmImpl:
		return "gemm"
	case ConvFFTImpl:
		return "fft"
	case ConvFFTTilingImpl:
		return "fft-tiling"
	case ConvBestNCHW:
		return "best-nchw"
	default:
		return fmt.Sprintf("ConvImpl(%d)", int(i))
	}
}

// PoolImpl selects the pooling implementation used for a cost query.
type PoolImpl int

// Pooling implementation choices.
const (
	// PoolPlain is the library kernel for the layout (cuda-convnet for CHWN,
	// Caffe/cuDNN for NCHW).
	PoolPlain PoolImpl = iota
	// PoolOptimized is the paper's register-reuse kernel (CHWN only); the
	// expansion factors come from CostOptions.PoolExpansion.
	PoolOptimized
	// PoolCuDNNVariant is the cuDNN NCHW kernel (adds the backward mask
	// write); used by the cuDNN framework emulation.
	PoolCuDNNVariant
)

// String names the implementation.
func (i PoolImpl) String() string {
	switch i {
	case PoolPlain:
		return "plain"
	case PoolOptimized:
		return "optimized"
	case PoolCuDNNVariant:
		return "cudnn"
	default:
		return fmt.Sprintf("PoolImpl(%d)", int(i))
	}
}

// CostOptions selects the implementation variants for a cost query.  The zero
// value is the conventional library behaviour for the layout.
type CostOptions struct {
	Conv          ConvImpl
	Pool          PoolImpl
	PoolExpansion kernels.PoolExpansion // zero value lets the layer pick 2x2
	Softmax       kernels.SoftmaxImpl
}

// Layer is one stage of a CNN: its description, its cost model and its forward
// contract.
type Layer interface {
	// Name identifies the layer inside its network (e.g. "conv1").
	Name() string
	// InputShape and OutputShape describe the logical tensors.
	InputShape() tensor.Shape
	OutputShape() tensor.Shape
	// SupportsLayout reports whether the layer has an implementation for the
	// given activation layout.
	SupportsLayout(l tensor.Layout) bool
	// Cost returns the GPU kernel sequence for executing the layer with the
	// given activation layout and implementation options.
	Cost(d *gpusim.Device, l tensor.Layout, opts CostOptions) ([]gpusim.KernelStats, error)
	// WorkspaceElems returns the scratch, in float32 elements, that
	// ForwardInto needs to run alg on activations in layout l.  The zero
	// algorithm (kernels.ConvAlgDirect) is every layer's own kernel and the
	// only one layers other than Conv have.  An error means the layer has no
	// kernel for the pair; that is how compilers, the verifier and the
	// reference forward learn it, before anything runs.
	WorkspaceElems(alg kernels.ConvAlgorithm, l tensor.Layout) (int, error)
	// ForwardInto runs the layer's alg kernel from in into dst, a tensor of
	// the layer's output shape in the same layout as in; dst is fully
	// overwritten.  scratch must hold at least WorkspaceElems(alg,
	// dst.Layout) elements; its contents are unspecified on entry and
	// trashed on return.  The values written do not depend on the layout,
	// and each algorithm fixes its own accumulation order.  dst must not
	// share storage with in unless ForwardsInPlace reports the layout safe.
	ForwardInto(in, dst *tensor.Tensor, alg kernels.ConvAlgorithm, scratch []float32) error
	// ForwardsInPlace reports whether ForwardInto may run with dst sharing
	// in's storage when both use layout l.  Compilers then alias the output
	// buffer onto the input and the arena never holds both.  Only layers that
	// read each element exactly once, at the index they write it, qualify.
	ForwardsInPlace(l tensor.Layout) bool
	// WithBatch returns a layer computing the same per-image function at
	// another batch size.  Parameters (convolution filter banks,
	// fully-connected weight matrices) are shared with the receiver, not
	// regenerated, and every layer handles images independently in a
	// batch-independent accumulation order, so a batch processed in slices
	// across such clones is bit-identical to the same batch processed whole
	// — the property the data-parallel replica scheduler builds on.
	WithBatch(batch int) (Layer, error)
}

// Forward is the allocating functional forward: it allocates the output (in
// the input's layout) and the scratch the contract asks for, then runs the
// alg kernel.  Network.Forward and the runtime's ReferenceForward, the
// references every planned execution is compared against, are built on it.
func Forward(l Layer, in *tensor.Tensor, alg kernels.ConvAlgorithm) (*tensor.Tensor, error) {
	elems, err := l.WorkspaceElems(alg, in.Layout)
	if err != nil {
		return nil, err
	}
	out := tensor.New(l.OutputShape(), in.Layout)
	if err := l.ForwardInto(in, out, alg, make([]float32, elems)); err != nil {
		return nil, err
	}
	return out, nil
}

// checkScratch is the common ForwardInto preamble: the layer must have the
// kernel, and the caller's scratch must be large enough for it.
func checkScratch(l Layer, alg kernels.ConvAlgorithm, lay tensor.Layout, scratch []float32) error {
	need, err := l.WorkspaceElems(alg, lay)
	if err != nil {
		return err
	}
	if len(scratch) < need {
		return fmt.Errorf("layers: %s: scratch has %d elements, want at least %d", l.Name(), len(scratch), need)
	}
	return nil
}

// ownKernel is the WorkspaceElems answer of a layer with a single kernel
// needing elems scratch elements: any other algorithm, or a layout the layer
// does not run in, is an error.
func ownKernel(l Layer, alg kernels.ConvAlgorithm, lay tensor.Layout, elems int) (int, error) {
	if alg != kernels.ConvAlgDirect {
		return 0, fmt.Errorf("layers: %s has no %v kernel", l.Name(), alg)
	}
	if !l.SupportsLayout(lay) {
		return 0, fmt.Errorf("layers: %s: unsupported layout %v", l.Name(), lay)
	}
	return elems, nil
}

// Conv is a convolutional layer.
type Conv struct {
	LayerName string
	Cfg       kernels.ConvConfig
	// Seed generates the deterministic filter bank.
	Seed uint64

	// parent, when non-nil, is the layer this one was rebatched from: the
	// filter bank (and its packed GEMM operand) is adopted from the parent on
	// first use instead of being regenerated, so every rebatched clone shares
	// one weight set.
	parent *Conv

	filtersOnce sync.Once
	filters     *tensor.Tensor
	packOnce    sync.Once
	packed      []float32
}

// NewConv builds a convolutional layer.
func NewConv(name string, cfg kernels.ConvConfig, seed uint64) (*Conv, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Conv{LayerName: name, Cfg: cfg, Seed: seed}, nil
}

// Name implements Layer.
func (c *Conv) Name() string { return c.LayerName }

// InputShape implements Layer.
func (c *Conv) InputShape() tensor.Shape { return c.Cfg.InputShape() }

// OutputShape implements Layer.
func (c *Conv) OutputShape() tensor.Shape { return c.Cfg.OutputShape() }

// SupportsLayout implements Layer: convolutions run in CHWN (direct) or NCHW
// (GEMM / FFT).
func (c *Conv) SupportsLayout(l tensor.Layout) bool {
	return l == tensor.CHWN || l == tensor.NCHW
}

// Filters returns (generating on first use) the layer's deterministic filter
// bank — adopted from the rebatch parent when there is one.  Generation is
// once-guarded so concurrent executor instances can share the layer.
func (c *Conv) Filters() *tensor.Tensor {
	c.filtersOnce.Do(func() {
		if c.parent != nil {
			c.filters = c.parent.Filters()
			return
		}
		c.filters = tensor.Filters(c.Cfg.K, c.Cfg.C, c.Cfg.FH, c.Cfg.FW, c.Seed)
	})
	return c.filters
}

// PackedFilters returns the filter bank packed once into the GEMM kernel's
// left operand (kernels.PackConvFilters) — adopted from the rebatch parent
// when there is one (the packed layout does not depend on the batch size).
func (c *Conv) PackedFilters() []float32 {
	c.packOnce.Do(func() {
		if c.parent != nil {
			c.packed = c.parent.PackedFilters()
			return
		}
		packed, err := kernels.PackConvFilters(c.Filters(), c.Cfg)
		if err != nil {
			// NewConv validated the config and Filters matches it by
			// construction.
			panic("layers: " + err.Error())
		}
		c.packed = packed
	})
	return c.packed
}

// refreshPacked re-packs the filter bank into the packed GEMM operand after
// an in-place weight update, writing over the existing slice so every
// rebatched clone sharing it sees the refresh.  A nil packed slice means no
// GEMM program ever materialised it, and there is nothing to refresh; the
// unsynchronised read is safe because ApplySGD's contract already forbids
// running training concurrently with forwards on the same layer.
func (c *Conv) refreshPacked() {
	if c.parent != nil {
		c.parent.refreshPacked()
		return
	}
	if c.packed == nil {
		return
	}
	if err := kernels.PackConvFiltersInto(c.packed, c.Filters(), c.Cfg); err != nil {
		// c.packed came from PackConvFilters on the same filters and config.
		panic("layers: " + err.Error())
	}
}

// WorkspaceElems implements Layer: the direct kernel needs no scratch, the
// im2col+GEMM path its unroll matrix (and output staging outside NCHW), the
// FFT path its spectrum planes.
func (c *Conv) WorkspaceElems(alg kernels.ConvAlgorithm, l tensor.Layout) (int, error) {
	if !c.SupportsLayout(l) {
		return 0, fmt.Errorf("layers: %s: unsupported layout %v", c.LayerName, l)
	}
	switch alg {
	case kernels.ConvAlgDirect:
		return 0, nil
	case kernels.ConvAlgGemm:
		return kernels.ConvGemmWorkspaceElems(c.Cfg, l), nil
	case kernels.ConvAlgFFT:
		return kernels.ConvFFTWorkspaceElems(c.Cfg), nil
	default:
		return 0, fmt.Errorf("layers: %s has no %v kernel", c.LayerName, alg)
	}
}

// ForwardInto implements Layer.  The GEMM path multiplies by the packed
// operand (packed on first use; compilers pre-pack it); the FFT path
// transforms the filter bank out of the per-run scratch, so rebatched clones
// share weights with no extra compile-time state.  The kernels check the
// scratch size themselves.
func (c *Conv) ForwardInto(in, dst *tensor.Tensor, alg kernels.ConvAlgorithm, scratch []float32) error {
	switch alg {
	case kernels.ConvAlgDirect:
		return kernels.ConvDirectInto(in, c.Filters(), dst, c.Cfg)
	case kernels.ConvAlgGemm:
		return kernels.ConvIm2colGemmInto(in, c.PackedFilters(), dst, c.Cfg, scratch)
	case kernels.ConvAlgFFT:
		return kernels.ConvFFTInto(in, c.Filters(), dst, c.Cfg, scratch)
	default:
		return fmt.Errorf("layers: %s has no %v kernel", c.LayerName, alg)
	}
}

// ForwardsInPlace implements Layer: every output reads a window of inputs.
func (c *Conv) ForwardsInPlace(tensor.Layout) bool { return false }

// WithBatch implements Layer: the clone convolves with the receiver's
// filter bank (shared lazily through the parent link, not regenerated —
// including the packed GEMM operand, which is only materialised if a GEMM
// program actually needs it), so per-image results are bit-identical at any
// batch size.
func (c *Conv) WithBatch(batch int) (Layer, error) {
	cfg := c.Cfg
	cfg.N = batch
	nc, err := NewConv(c.LayerName, cfg, c.Seed)
	if err != nil {
		return nil, err
	}
	nc.parent = c
	return nc, nil
}

// Cost implements Layer.
func (c *Conv) Cost(d *gpusim.Device, l tensor.Layout, opts CostOptions) ([]gpusim.KernelStats, error) {
	impl := opts.Conv
	switch l {
	case tensor.CHWN:
		if impl == ConvAuto {
			impl = ConvDirectImpl
		}
		if impl != ConvDirectImpl {
			return nil, fmt.Errorf("layers: %s: %v convolution is not available in the CHWN layout", c.LayerName, impl)
		}
		return []gpusim.KernelStats{kernels.ConvDirectCHWNCost(d, c.Cfg)}, nil
	case tensor.NCHW:
		if impl == ConvAuto {
			impl = ConvGemmImpl
		}
		switch impl {
		case ConvGemmImpl:
			return kernels.ConvGemmNCHWCost(d, c.Cfg), nil
		case ConvFFTImpl:
			return kernels.ConvFFTCost(d, c.Cfg)
		case ConvFFTTilingImpl:
			return kernels.ConvFFTTilingCost(d, c.Cfg)
		case ConvBestNCHW:
			return c.bestNCHW(d), nil
		default:
			return nil, fmt.Errorf("layers: %s: %v convolution is not available in the NCHW layout", c.LayerName, impl)
		}
	default:
		return nil, fmt.Errorf("layers: %s: unsupported layout %v", c.LayerName, l)
	}
}

// bestNCHW picks the fastest NCHW mode that fits in device memory, falling
// back to GEMM the way cuDNN falls back when an FFT mode fails.
func (c *Conv) bestNCHW(d *gpusim.Device) []gpusim.KernelStats {
	best := kernels.ConvGemmNCHWCost(d, c.Cfg)
	bestT, _ := gpusim.EstimateSequence(d, best)
	if fftSeq, err := kernels.ConvFFTCost(d, c.Cfg); err == nil {
		if t, _ := gpusim.EstimateSequence(d, fftSeq); t < bestT {
			best, bestT = fftSeq, t
		}
	}
	if fftT, err := kernels.ConvFFTTilingCost(d, c.Cfg); err == nil {
		if t, _ := gpusim.EstimateSequence(d, fftT); t < bestT {
			best, bestT = fftT, t
		}
	}
	return best
}

// Pool is a pooling layer.
type Pool struct {
	LayerName string
	Cfg       kernels.PoolConfig
}

// NewPool builds a pooling layer.
func NewPool(name string, cfg kernels.PoolConfig) (*Pool, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Pool{LayerName: name, Cfg: cfg}, nil
}

// Name implements Layer.
func (p *Pool) Name() string { return p.LayerName }

// InputShape implements Layer.
func (p *Pool) InputShape() tensor.Shape { return p.Cfg.InputShape() }

// OutputShape implements Layer.
func (p *Pool) OutputShape() tensor.Shape { return p.Cfg.OutputShape() }

// SupportsLayout implements Layer.
func (p *Pool) SupportsLayout(l tensor.Layout) bool {
	return l == tensor.CHWN || l == tensor.NCHW
}

// WithBatch implements Layer: pooling is stateless, so the clone only
// changes the batch dimension.
func (p *Pool) WithBatch(batch int) (Layer, error) {
	cfg := p.Cfg
	cfg.N = batch
	return NewPool(p.LayerName, cfg)
}

// Cost implements Layer.
func (p *Pool) Cost(d *gpusim.Device, l tensor.Layout, opts CostOptions) ([]gpusim.KernelStats, error) {
	switch l {
	case tensor.CHWN:
		switch opts.Pool {
		case PoolOptimized:
			e := opts.PoolExpansion
			if e.H <= 0 || e.W <= 0 {
				e = kernels.PoolExpansion{H: 2, W: 2}
			}
			return []gpusim.KernelStats{kernels.PoolCHWNCoarsenedCost(d, p.Cfg, e)}, nil
		case PoolCuDNNVariant:
			return nil, fmt.Errorf("layers: %s: the cuDNN pooling kernel uses the NCHW layout", p.LayerName)
		default:
			return []gpusim.KernelStats{kernels.PoolCHWNCost(d, p.Cfg)}, nil
		}
	case tensor.NCHW:
		variant := kernels.PoolCaffe
		if opts.Pool == PoolCuDNNVariant {
			variant = kernels.PoolCuDNN
		}
		if opts.Pool == PoolOptimized {
			return nil, fmt.Errorf("layers: %s: the optimised pooling kernel requires the CHWN layout", p.LayerName)
		}
		return []gpusim.KernelStats{kernels.PoolNCHWCost(d, p.Cfg, variant)}, nil
	default:
		return nil, fmt.Errorf("layers: %s: unsupported layout %v", p.LayerName, l)
	}
}

// WorkspaceElems implements Layer: pooling needs no scratch.
func (p *Pool) WorkspaceElems(alg kernels.ConvAlgorithm, l tensor.Layout) (int, error) {
	return ownKernel(p, alg, l, 0)
}

// ForwardInto implements Layer.
func (p *Pool) ForwardInto(in, dst *tensor.Tensor, alg kernels.ConvAlgorithm, scratch []float32) error {
	if err := checkScratch(p, alg, dst.Layout, scratch); err != nil {
		return err
	}
	return kernels.PoolInto(in, dst, p.Cfg)
}

// ForwardsInPlace implements Layer: every output reads a window of inputs.
func (p *Pool) ForwardsInPlace(tensor.Layout) bool { return false }
