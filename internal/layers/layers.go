// Package layers provides the CNN layer abstraction that networks are built
// from: convolution, pooling, softmax, fully-connected, ReLU and LRN layers.
// There are three interfaces.  Layer is what every layer is: a description
// (name, shapes) and a forward contract keyed by (algorithm, layout); every
// layer runs in both of tensor's layouts, NCHW and CHWN.  WorkspaceElems says
// how much scratch a kernel needs — or that the layer has no such kernel —
// and ForwardInto runs it into caller-provided output and scratch.  Compilers ask once and plan the
// scratch; the package-level Forward helper asks and allocates, which is the
// functional forward the examples and the correctness references use.  What a
// layer would cost on the paper's GPUs is not a layer's question:
// gpusim.LayerCost prices it.
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

	"memcnn/internal/kernels"
	"memcnn/internal/tensor"
)

// Layer is one stage of a CNN: its description and its forward contract.
// Every layer runs in NCHW and in CHWN, so the layout is the caller's choice.
type Layer interface {
	// Name identifies the layer inside its network (e.g. "conv1").
	Name() string
	// InputShape and OutputShape describe the logical tensors.
	InputShape() tensor.Shape
	OutputShape() tensor.Shape
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
// needing elems scratch elements: any other algorithm is an error.
func ownKernel(l Layer, alg kernels.ConvAlgorithm, elems int) (int, error) {
	if alg != kernels.ConvAlgDirect {
		return 0, fmt.Errorf("layers: %s has no %v kernel", l.Name(), alg)
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
// im2col+GEMM path one image's unroll matrix.
func (c *Conv) WorkspaceElems(alg kernels.ConvAlgorithm, l tensor.Layout) (int, error) {
	switch alg {
	case kernels.ConvAlgDirect:
		return 0, nil
	case kernels.ConvAlgGemm:
		return kernels.ConvGemmWorkspaceElems(c.Cfg, l), nil
	default:
		return 0, fmt.Errorf("layers: %s has no %v kernel", c.LayerName, alg)
	}
}

// ForwardInto implements Layer.  The GEMM path multiplies by the packed
// operand (packed on first use; compilers pre-pack it).  The kernels check
// the scratch size themselves.
func (c *Conv) ForwardInto(in, dst *tensor.Tensor, alg kernels.ConvAlgorithm, scratch []float32) error {
	switch alg {
	case kernels.ConvAlgDirect:
		return kernels.ConvDirectInto(in, c.Filters(), dst, c.Cfg)
	case kernels.ConvAlgGemm:
		return kernels.ConvIm2colGemmInto(in, c.PackedFilters(), dst, c.Cfg, scratch)
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

// WithBatch implements Layer: pooling is stateless, so the clone only
// changes the batch dimension.
func (p *Pool) WithBatch(batch int) (Layer, error) {
	cfg := p.Cfg
	cfg.N = batch
	return NewPool(p.LayerName, cfg)
}

// WorkspaceElems implements Layer: pooling needs no scratch.
func (p *Pool) WorkspaceElems(alg kernels.ConvAlgorithm, _ tensor.Layout) (int, error) {
	return ownKernel(p, alg, 0)
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
