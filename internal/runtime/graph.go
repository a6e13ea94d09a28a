package runtime

import (
	"fmt"

	"memcnn/internal/kernels"
	"memcnn/internal/layers"
	"memcnn/internal/network"
	"memcnn/internal/tensor"
)

// BufferID names one logical activation buffer of a compiled program.
type BufferID int

// NoBuffer marks the absence of a buffer reference (e.g. no alias).
const NoBuffer BufferID = -1

// Buffer describes one logical activation tensor of a program.
type Buffer struct {
	ID     BufferID
	Shape  tensor.Shape
	Layout tensor.Layout

	// AliasOf, when not NoBuffer, marks the buffer as a zero-copy view of
	// another buffer: a reshape whose relabelling does not move data (see
	// tensor.CanReinterpret).  Aliases share their root's storage and are
	// never assigned arena space of their own.
	AliasOf BufferID

	// Scratch marks an op-local workspace buffer (GEMM unroll matrix,
	// flatten/logit staging).  Scratch buffers are live only during the op
	// that owns them, so the memory planner overlays them with any
	// non-conflicting activation storage.
	Scratch bool
}

// Elems returns the buffer's element count.
func (b Buffer) Elems() int { return b.Shape.Elems() }

// Bytes returns the buffer's storage size in bytes (float32 elements).
func (b Buffer) Bytes() int64 { return b.Shape.Bytes() }

// OpKind discriminates the three op types of a compiled program.
type OpKind int

// The op kinds, in the order they can appear between two layers.
const (
	// OpTransform re-linearises a buffer into another layout
	// (tensor.ConvertInto); it carries the plan's layout-transformation.
	OpTransform OpKind = iota
	// OpReshape relabels a buffer with a new logical shape at a flattening
	// boundary.  When the output buffer aliases the input the op is free;
	// otherwise the executor falls back to a canonical-order copy.
	OpReshape
	// OpLayer runs one network layer from its input buffer into its output
	// buffer.
	OpLayer
	// OpRecompute re-runs a layer's forward pass during the backward phase to
	// rematerialise an activation the checkpointing planner chose not to
	// store.  It executes exactly like OpLayer; the distinct kind keeps the
	// traded-away FLOPs visible in reports and prevents a recompute from being
	// mistaken for part of the forward pass.
	OpRecompute
	// OpLossGrad computes the fused softmax + cross-entropy gradient: In is
	// the probability buffer, Aux the float32-coded label vector, Out the
	// logit gradient (all N×Classes matrices except the labels).
	OpLossGrad
	// OpBackward propagates a gradient through one layer: In is the incoming
	// output-gradient, Aux the layer's forward input where the layer needs it
	// (pooling argmax, ReLU mask, LRN window; NoBuffer for conv and
	// fully-connected, whose input gradients depend only on their
	// parameters), Out the input-gradient.
	OpBackward
	// OpGradFilter computes a parameter gradient: In is the incoming
	// output-gradient, Aux the layer's forward input, Out the parameter
	// gradient in the layer's GradShape.
	OpGradFilter
	// OpSGD applies In (a parameter gradient) to the op's layer in place with
	// learning rate LR; Out equals In (the op defines no new value).
	OpSGD
)

// String names the op kind.
func (k OpKind) String() string {
	switch k {
	case OpTransform:
		return "transform"
	case OpReshape:
		return "reshape"
	case OpLayer:
		return "layer"
	case OpRecompute:
		return "recompute"
	case OpLossGrad:
		return "loss-grad"
	case OpBackward:
		return "backward"
	case OpGradFilter:
		return "grad-filter"
	case OpSGD:
		return "sgd"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Op is one step of a compiled program.
type Op struct {
	Kind OpKind
	Name string
	// Layer is set for OpLayer ops only.
	Layer layers.Layer
	In    BufferID
	Out   BufferID

	// Alg is the kernel of Layer this op runs.  On a forward op the compiler
	// binds it, and the (Layer, Alg) pair is everything the executor needs:
	// ConvAlgDirect — every layer's own kernel — unless algorithm selection
	// chose a convolution's GEMM or FFT path.  A gradient op records the
	// kernel its layer's gradient method runs: GEMM for a convolution,
	// ConvAlgDirect for every other layer.
	Alg kernels.ConvAlgorithm
	// Scratch, when not NoBuffer, is the op-local workspace buffer the
	// executor hands the layer, sized at compile time by Layer.WorkspaceElems
	// (GEMM unroll matrix, FFT spectrum planes, fully-connected flatten
	// staging, softmax logits) or, on a gradient op, by the layer's gradient
	// workspace (GEMM gradient operands, LRN staging).  It is live only during
	// this op.
	Scratch BufferID

	// Aux, when not NoBuffer, is a second read operand: the forward
	// activation a training backward op consumes (OpBackward, OpGradFilter)
	// or the label vector of the loss gradient (OpLossGrad).  Always NoBuffer
	// on inference op kinds.
	Aux BufferID
	// LR is the learning rate of an OpSGD op; zero otherwise.
	LR float32
}

// Program is a network lowered to an executable op list over explicit
// buffers, together with its static memory plan.
type Program struct {
	Net         *network.Network
	PlannerName string
	// Opts records the options the program was lowered with, so derived
	// programs (WithBatch) keep verifying.
	Opts    Options
	Buffers []Buffer
	Ops     []Op
	Input   BufferID
	Output  BufferID
	// ExtraInputs are buffers written by the caller before the run rather
	// than by any op (a training program's label vector).  The memory planner
	// treats them like Input: defined before the first op.
	ExtraInputs []BufferID
	Mem         *MemPlan
	// Decisions is the selection pass's record, one per layer, when the
	// program was compiled with Options.ConvAlgorithms; nil otherwise (a
	// WithBatch clone copies its base's choices and selects nothing).
	Decisions []Decision
}

// InputShape returns the shape the program consumes.
func (p *Program) InputShape() tensor.Shape { return p.Buffers[p.Input].Shape }

// OutputShape returns the shape the program produces.
func (p *Program) OutputShape() tensor.Shape { return p.Buffers[p.Output].Shape }

// root resolves alias chains to the buffer that owns the storage.
func (p *Program) root(id BufferID) BufferID {
	for p.Buffers[id].AliasOf != NoBuffer {
		id = p.Buffers[id].AliasOf
	}
	return id
}

// Options control how a decision list is compiled.
type Options struct {
	// ConvAlgorithms runs the selection pass (SelectChoices) over the
	// decision list before it is lowered: a dynamic program over the layer
	// chain that gives every layer the layout, and each convolution the
	// direct, im2col+GEMM or FFT strategy, that make the whole chain cheapest
	// on the host, transforms included, the list's own layouts winning ties.
	// The program keeps the pass's decision record (Program.Decisions).  Off
	// by default: the list is lowered as given, the direct path being the
	// bit-equality reference against the naive Network.Forward, while GEMM
	// and FFT programs are cross-checked per algorithm via ReferenceForward.
	ConvAlgorithms bool
	// Verify runs the registered whole-program static checker
	// (internal/runtime/verify) over the lowered program before it is
	// returned (Shard compiles nothing, so it checks nothing): def-before-use
	// dataflow, alias-chain soundness, in-place clobber detection, workspace
	// sufficiency, plan/liveness consistency and the determinism lint.
	// Compilation fails if any check does.  The checker must be registered
	// (import memcnn/internal/runtime/verify); WithBatch clones inherit the
	// flag.
	Verify bool
}

// Choice is the compiler's decision for one network layer — the paper's
// per-layer assignment: the data layout the layer runs in and the convolution
// algorithm it is bound to.  Layers other than convolutions have one kernel,
// ConvAlgDirect.  A program is lowered from one Choice per layer.
type Choice struct {
	Layout tensor.Layout
	Alg    kernels.ConvAlgorithm
}

// Uniform is the decision list of a single-layout program: every layer in
// lay and every convolution on alg, the policy of the library emulations
// and the baseline planned programs are compared against.
func Uniform(net *network.Network, lay tensor.Layout, alg kernels.ConvAlgorithm) []Choice {
	choices := make([]Choice, len(net.Layers))
	for i, l := range net.Layers {
		choices[i].Layout = lay
		if _, ok := l.(*layers.Conv); ok {
			choices[i].Alg = alg
		}
	}
	return choices
}

// PlanChoices is the decision list an execution plan stands for: its
// per-layer layouts, every layer on its direct kernel.
func PlanChoices(plan *network.ExecutionPlan) []Choice {
	choices := make([]Choice, len(plan.Layers))
	for i, pl := range plan.Layers {
		choices[i].Layout = pl.Layout
	}
	return choices
}

// Choices reads the decision list back from a compiled program: the layout
// and algorithm of every layer op, in layer order.
func (p *Program) Choices() []Choice {
	var choices []Choice
	for _, op := range p.Ops {
		if op.Kind == OpLayer {
			choices = append(choices, Choice{Layout: p.Buffers[op.In].Layout, Alg: op.Alg})
		}
	}
	return choices
}

// Compile lowers a network into a program from one Choice per layer
// (PlanChoices, Uniform, or another program's Choices): the selection pass
// rewrites the list when Options.ConvAlgorithms is set, and the lowering
// binds exactly the list it is handed.  name labels the program
// (Program.PlannerName).
func Compile(net *network.Network, name string, choices []Choice, opts Options) (*Program, error) {
	return compile(net, name, choices, opts, true)
}

// CompileWithOptions compiles an execution plan: its layouts are the decision
// list, and with Options.ConvAlgorithms the selection pass (SelectChoices)
// re-chooses every layer's layout and algorithm on the host, the plan's
// layouts only breaking ties.  The plan's device priced the layouts; it has
// no say in what runs on the host whatever GPU the plan models.
func CompileWithOptions(plan *network.ExecutionPlan, opts Options) (*Program, error) {
	if err := plan.Validate(); err != nil {
		return nil, fmt.Errorf("runtime: %w", err)
	}
	return compile(plan.Network, plan.PlannerName, PlanChoices(plan), opts, true)
}

// WithBatch compiles the program's network at another batch size from the
// program's own decision list, so layouts and convolution algorithms are
// copied rather than re-planned or re-selected.  Pinning the algorithms
// matters because golden bit-equality holds per algorithm, and selection goes
// by shape — a sub-batch clone left to its own selection could pick direct
// where the base runs GEMM and drift from the base's bits.  The clone shares
// the base network's weights (Network.WithBatch) and keeps its verification
// option; the data-parallel replica scheduler builds every per-replica
// sub-batch program this way.
func (p *Program) WithBatch(batch int) (*Program, error) {
	net, err := p.Net.WithBatch(batch)
	if err != nil {
		return nil, err
	}
	return compile(net, p.PlannerName, p.Choices(), Options{Verify: p.Opts.Verify}, true)
}

// compile checks the preconditions every entrypoint shares, runs the
// selection pass and lowers, with in-place layers aliased when inPlace is
// set.
func compile(net *network.Network, name string, choices []Choice, opts Options, inPlace bool) (*Program, error) {
	if net == nil || len(net.Layers) == 0 {
		return nil, fmt.Errorf("runtime: cannot compile an empty network")
	}
	if len(choices) != len(net.Layers) {
		return nil, fmt.Errorf("runtime: %d choices for the %d layers of %s", len(choices), len(net.Layers), net.Name)
	}
	for i, ch := range choices {
		if !ch.Layout.Valid() {
			return nil, fmt.Errorf("runtime: layer %q has no valid layout (%v)", net.Layers[i].Name(), ch.Layout)
		}
	}
	var decisions []Decision
	if opts.ConvAlgorithms {
		choices, decisions = selectChoices(net, choices, hostPrices, false, nil)
	}
	p, err := lower(net, name, choices, opts, inPlace)
	if err != nil {
		return nil, err
	}
	p.Decisions = decisions
	return p, nil
}

// AddBuffer appends a buffer to a program under construction.  alias is
// NoBuffer for a buffer with storage of its own.
func (p *Program) AddBuffer(shape tensor.Shape, layout tensor.Layout, alias BufferID) BufferID {
	id := BufferID(len(p.Buffers))
	p.Buffers = append(p.Buffers, Buffer{ID: id, Shape: shape, Layout: layout, AliasOf: alias})
	return id
}

// AddScratch appends an op-local flat workspace of elems float32 elements,
// or returns NoBuffer when the kernel needs none.
func (p *Program) AddScratch(elems int) BufferID {
	if elems <= 0 {
		return NoBuffer
	}
	id := p.AddBuffer(tensor.Shape{N: 1, C: 1, H: 1, W: elems}, tensor.NCHW, NoBuffer)
	p.Buffers[id].Scratch = true
	return id
}

// AddView returns a view of src in layout lay with the given logical shape:
// src itself when both already match, otherwise the output of an appended
// OpTransform where the layout differs, then of an OpReshape where the shape
// does — a zero-copy alias whenever the layout permits
// (tensor.CanReinterpret), a canonical-order copy elsewhere.  Each op is
// named "<from>-><to> tag".
func (p *Program) AddView(src BufferID, shape tensor.Shape, lay tensor.Layout, tag string) (BufferID, error) {
	if from := p.Buffers[src].Layout; from != lay {
		out := p.AddBuffer(p.Buffers[src].Shape, lay, NoBuffer)
		p.Ops = append(p.Ops, Op{
			Kind: OpTransform,
			Name: fmt.Sprintf("%v->%v %s", from, lay, tag),
			In:   src, Out: out, Scratch: NoBuffer, Aux: NoBuffer,
		})
		src = out
	}
	have := p.Buffers[src].Shape
	if have == shape {
		return src, nil
	}
	if have.Elems() != shape.Elems() {
		return NoBuffer, fmt.Errorf("runtime: cannot reshape %v into %v %s", have, shape, tag)
	}
	alias := NoBuffer
	if tensor.CanReinterpret(have, shape, lay) {
		alias = p.root(src)
	}
	out := p.AddBuffer(shape, lay, alias)
	p.Ops = append(p.Ops, Op{
		Kind: OpReshape,
		Name: fmt.Sprintf("%v->%v %s", have, shape, tag),
		In:   src, Out: out, Scratch: NoBuffer, Aux: NoBuffer,
	})
	return out, nil
}

// AddLayer appends a forward op (OpLayer or OpRecompute) running layer l's
// alg kernel on buffer in, and returns its output buffer.  This is where a
// kernel is bound: the layer's contract says whether it has the kernel for
// the buffer's layout and how much scratch it needs, and that scratch
// becomes an op-local buffer.  With inPlace, a layer that declares it safe
// gets its output aliased onto its input: the op reads and writes the same
// storage, and the arena never holds both sides at once.
func (p *Program) AddLayer(kind OpKind, name string, l layers.Layer, in BufferID, alg kernels.ConvAlgorithm, inPlace bool) (BufferID, error) {
	lay := p.Buffers[in].Layout
	elems, err := l.WorkspaceElems(alg, lay)
	if err != nil {
		return NoBuffer, fmt.Errorf("runtime: binding layer %q: %w", l.Name(), err)
	}
	alias := NoBuffer
	if inPlace && l.ForwardsInPlace(lay) && l.OutputShape() == p.Buffers[in].Shape &&
		tensor.CanReinterpret(p.Buffers[p.root(in)].Shape, l.OutputShape(), lay) {
		alias = p.root(in)
	}
	out := p.AddBuffer(l.OutputShape(), lay, alias)
	if conv, ok := l.(*layers.Conv); ok && alg == kernels.ConvAlgGemm {
		conv.PackedFilters() // pre-pack the GEMM operand once, at compile time
	}
	p.Ops = append(p.Ops, Op{
		Kind: kind, Name: name, Layer: l, In: in, Out: out,
		Alg: alg, Scratch: p.AddScratch(elems), Aux: NoBuffer,
	})
	return out, nil
}

// AddForward lowers net's forward pass into p from its decision list — the
// input buffer, then per layer AddView into the layer's layout and shape and
// AddLayer on its chosen kernel — sets p's Input and Output, and returns each
// layer's input view and output.  Inference and training both lower through
// it; training passes inPlace false, because its backward pass reads the
// activations an in-place op would overwrite.
func (p *Program) AddForward(net *network.Network, choices []Choice, inPlace bool) (ins, outs []BufferID, err error) {
	cur := p.AddBuffer(net.InputShape(), choices[0].Layout, NoBuffer)
	p.Input = cur
	ins = make([]BufferID, len(net.Layers))
	outs = make([]BufferID, len(net.Layers))
	for i, l := range net.Layers {
		if ins[i], err = p.AddView(cur, l.InputShape(), choices[i].Layout, "before "+l.Name()); err != nil {
			return nil, nil, err
		}
		if cur, err = p.AddLayer(OpLayer, l.Name(), l, ins[i], choices[i].Alg, inPlace); err != nil {
			return nil, nil, err
		}
		outs[i] = cur
	}
	p.Output = cur
	return ins, outs, nil
}

// lower builds a program from a decision list: the forward pass
// (AddForward) and its static memory plan (see PlanMemory), checked when
// opts ask for it.
func lower(net *network.Network, plannerName string, choices []Choice, opts Options, inPlace bool) (*Program, error) {
	p := &Program{Net: net, PlannerName: plannerName, Opts: opts}
	if _, _, err := p.AddForward(net, choices, inPlace); err != nil {
		return nil, err
	}
	mem, err := PlanMemory(p)
	if err != nil {
		return nil, err
	}
	p.Mem = mem
	if opts.Verify {
		if err := VerifyProgram(p); err != nil {
			return nil, err
		}
	}
	return p, nil
}
