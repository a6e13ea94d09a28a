// Package layers provides the CNN layer abstraction that networks are built
// from: convolution, pooling, softmax, fully-connected, ReLU and LRN layers.
// There are three interfaces.  Layer is what every layer is: a description
// (name, shapes) and a forward contract keyed by layout; every layer runs its
// one kernel in both of tensor's layouts, NCHW and CHWN, and a convolution's
// kernel is im2col+GEMM.  WorkspaceElems says how much scratch that kernel
// needs and ForwardInto runs it into caller-provided output and scratch.
// Compilers ask once and plan the scratch; the package-level Forward helper
// asks and allocates, which is the functional forward the examples and the
// correctness references use.  What a layer would cost on the paper's GPUs is
// not a layer's question: gpusim.LayerCost prices it.
//
// BackwardLayer adds the input gradient and TrainableLayer the parameter
// gradient and SGD update (backward.go).  The direct convolution
// (kernels.ConvDirectInto) runs on no compiled path: Forward's reference
// switch runs it, as the float64-accumulating oracle that shares no code with
// the packed GEMM core.
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
	// ForwardInto needs on activations in layout l.
	WorkspaceElems(l tensor.Layout) int
	// ForwardInto runs the layer's kernel from in into dst, a tensor of the
	// layer's output shape in the same layout as in; dst is fully
	// overwritten.  scratch must hold at least WorkspaceElems(dst.Layout)
	// elements; its contents are unspecified on entry and trashed on return.
	// The values written do not depend on the layout.  dst must not share
	// storage with in unless ForwardsInPlace reports the layout safe.
	ForwardInto(in, dst *tensor.Tensor, scratch []float32) error
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

// Forward is the allocating functional forward.  It relabels an input whose
// shape differs from the layer's but holds as many elements (the flattening
// boundary in front of a fully-connected layer) into the layer's input shape,
// in canonical (N,C,H,W) order.  It then allocates the output, in the input's
// layout, and the scratch the contract asks for, and runs the layer's kernel.
// With reference it is the one reference switch: a convolution runs the
// direct kernel instead, which accumulates in float64 and shares no code with
// the GEMM core, and every other layer its one kernel.  Network.Forward walks
// the reference, the runtime's ReferenceForward the kernels a compiled program
// runs.
func Forward(l Layer, in *tensor.Tensor, reference bool) (*tensor.Tensor, error) {
	if want := l.InputShape(); in.Shape != want && in.Shape.Elems() == want.Elems() {
		reshaped := tensor.New(want, in.Layout)
		if err := tensor.ReshapeInto(in, reshaped); err != nil {
			return nil, err
		}
		in = reshaped
	}
	out := tensor.New(l.OutputShape(), in.Layout)
	if conv, ok := l.(*Conv); ok && reference {
		return out, kernels.ConvDirectInto(in, conv.Filters(), out, conv.Cfg)
	}
	return out, l.ForwardInto(in, out, make([]float32, l.WorkspaceElems(in.Layout)))
}

// KernelAlg is the label of the kernel l's forward and gradient methods run,
// the one value a compiled op records in runtime.Op.Alg: GEMM for a
// convolution, the zero value for every other layer.  Nothing dispatches on
// it; it names the kernel in traces and benchmark reports.
func KernelAlg(l Layer) kernels.ConvAlgorithm {
	if _, ok := l.(*Conv); ok {
		return kernels.ConvAlgGemm
	}
	return 0
}

// checkScratch is the common ForwardInto preamble: the caller's scratch must
// be large enough for the layer's kernel.
func checkScratch(l Layer, lay tensor.Layout, scratch []float32) error {
	if need := l.WorkspaceElems(lay); len(scratch) < need {
		return fmt.Errorf("layers: %s: scratch has %d elements, want at least %d", l.Name(), len(scratch), need)
	}
	return nil
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
// forward ever materialised it, and there is nothing to refresh; the
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

// WorkspaceElems implements Layer: the im2col+GEMM kernel's unroll matrix.
func (c *Conv) WorkspaceElems(l tensor.Layout) int {
	return kernels.ConvGemmWorkspaceElems(c.Cfg, l)
}

// ForwardInto implements Layer with im2col+GEMM, multiplying by the packed
// operand (packed on first use; compilers pre-pack it).  The kernel checks
// the scratch size itself.
func (c *Conv) ForwardInto(in, dst *tensor.Tensor, scratch []float32) error {
	return kernels.ConvIm2colGemmInto(in, c.PackedFilters(), dst, c.Cfg, scratch)
}

// ForwardsInPlace implements Layer: every output reads a window of inputs.
func (c *Conv) ForwardsInPlace(tensor.Layout) bool { return false }

// WithBatch implements Layer: the clone convolves with the receiver's
// filter bank (shared lazily through the parent link, not regenerated —
// including the packed GEMM operand, materialised on first use), so
// per-image results are bit-identical at any batch size.
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
func (p *Pool) WorkspaceElems(tensor.Layout) int { return 0 }

// ForwardInto implements Layer.
func (p *Pool) ForwardInto(in, dst *tensor.Tensor, _ []float32) error {
	return kernels.PoolInto(in, dst, p.Cfg)
}

// ForwardsInPlace implements Layer: every output reads a window of inputs.
func (p *Pool) ForwardsInPlace(tensor.Layout) bool { return false }
