package runtime

import (
	"fmt"

	"memcnn/internal/autotune"
	"memcnn/internal/kernels"
	"memcnn/internal/layers"
	"memcnn/internal/layout"
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

	// Alg is the kernel of Layer the compiler bound this forward op to: the
	// (Layer, Alg) pair is everything the executor needs to run it.
	// ConvAlgDirect — every layer's own kernel — unless algorithm selection
	// chose a convolution's GEMM or FFT path.
	Alg kernels.ConvAlgorithm
	// Scratch, when not NoBuffer, is the op-local workspace buffer the
	// executor hands the layer, sized by Layer.WorkspaceElems at compile time
	// (GEMM unroll matrix, FFT spectrum planes, fully-connected flatten
	// staging, softmax logits).  It is live only during this op.
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
	// programs (CompileLike) can reproduce behaviour-affecting choices such
	// as NoInPlace.
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

// Options control how Compile lowers a plan.
type Options struct {
	// ConvAlgorithms enables per-layer convolution algorithm selection: each
	// conv op records the direct, im2col+GEMM or FFT strategy
	// (internal/autotune decides by layer shape, and CompileWithOptions
	// re-prices the choice jointly with the layer's layout on the plan's
	// device model) together with the workspace the chosen path needs.  Off
	// by default: the direct path is the bit-equality reference against the
	// naive Network.Forward, while GEMM and FFT programs are cross-checked
	// per algorithm via ReferenceForward.
	ConvAlgorithms bool
	// Probe, together with ConvAlgorithms, selects each conv algorithm by
	// timing every production kernel once on a sample input instead of the
	// analytic heuristic.  Compilation becomes measurably slower (one full
	// layer execution per conv layer per algorithm).
	Probe bool
	// NoInPlace disables in-place execution of layers that declare it safe
	// (Layer.ForwardsInPlace, e.g. ReLU).  By default such a layer's
	// output buffer aliases its input, so the op reads and writes the same
	// arena storage and the memory plan shrinks; results are bit-identical
	// either way.  The flag exists to measure that shrinkage.
	NoInPlace bool
	// Verify runs the registered whole-program static checker
	// (internal/runtime/verify) over the lowered program — and, for Shard,
	// over every stage sub-program — before it is returned: def-before-use
	// dataflow, alias-chain soundness, in-place clobber detection, workspace
	// sufficiency, plan/liveness consistency and the determinism lint.
	// Compilation fails if any check does.  The checker must be registered
	// (import memcnn/internal/runtime/verify); derived programs
	// (CompileLike, replica sub-batch clones) inherit the flag.
	Verify bool
}

// Compile lowers an execution plan into a program: each layer becomes an
// OpLayer in its planned layout, a layout change between consecutive layers
// becomes an OpTransform, and a logical shape change (conv/pool output
// flattening into a fully-connected layer) becomes an OpReshape — a zero-copy
// view whenever the layout permits.  The resulting program carries its static
// memory plan (see PlanMemory).
func Compile(plan *network.ExecutionPlan) (*Program, error) {
	return CompileWithOptions(plan, Options{})
}

// CompileWithOptions is Compile with explicit lowering options.
//
// With Options.ConvAlgorithms (and no probe) the compiler does not take the
// plan's layouts as given: each convolution layer goes through the
// internal/layout joint sweep, which prices the analytic heuristic's
// algorithm against the FFT mode — including the cost of switching the
// layer's input layout — on the plan's device model and may flip both the
// algorithm and the layout together (layout.JointConvChoice).  That is the
// paper's joint layout+algorithm choice made at compile time; cmd/layoutplan
// reports the same sweep.
func CompileWithOptions(plan *network.ExecutionPlan, opts Options) (*Program, error) {
	if plan == nil {
		return nil, fmt.Errorf("runtime: cannot compile a nil plan")
	}
	if err := plan.Validate(); err != nil {
		return nil, fmt.Errorf("runtime: %w", err)
	}
	layouts := make([]tensor.Layout, len(plan.Layers))
	for i, pl := range plan.Layers {
		layouts[i] = pl.Layout
	}
	if opts.ConvAlgorithms && !opts.Probe {
		forced := make([]kernels.ConvAlgorithm, len(plan.Layers))
		for i, pl := range plan.Layers {
			conv, ok := pl.Layer.(*layers.Conv)
			if !ok {
				continue
			}
			base := autotune.SelectConvAlgorithm(conv.Cfg)
			choice := layout.JointConvChoice(plan.Device, conv.Cfg, layouts[i], base)
			layouts[i] = choice.Layout
			forced[i] = choice.Alg
		}
		return lower(plan.Network, plan.PlannerName, layouts, opts, forced)
	}
	return lower(plan.Network, plan.PlannerName, layouts, opts, nil)
}

// CompileLike lowers a network against the shape of an already compiled
// program: per-layer layouts and convolution algorithms are copied from the
// base rather than re-planned or re-selected.  The network must have the same
// layer stack as the base's (typically a Network.WithBatch clone at a
// different batch size); pinning the algorithms matters because golden
// bit-equality holds per algorithm, and autotune would select by shape —
// a sub-batch clone left to its own selection could pick direct where the
// base runs GEMM and drift from the base's bits.  The data-parallel replica
// scheduler compiles every per-replica sub-batch program this way.
func CompileLike(base *Program, net *network.Network) (*Program, error) {
	if base == nil {
		return nil, fmt.Errorf("runtime: cannot compile against a nil base program")
	}
	if net == nil || len(net.Layers) != len(base.Net.Layers) {
		return nil, fmt.Errorf("runtime: network does not match the base program's layer stack")
	}
	layouts := make([]tensor.Layout, len(net.Layers))
	forced := make([]kernels.ConvAlgorithm, len(net.Layers))
	li := 0
	for _, op := range base.Ops {
		if op.Kind != OpLayer {
			continue
		}
		bl, nl := base.Net.Layers[li], net.Layers[li]
		if bl.Name() != nl.Name() {
			return nil, fmt.Errorf("runtime: layer %d is %q in the base, %q in the network",
				li, bl.Name(), nl.Name())
		}
		// Per-image geometry must match; only the batch dimension may differ.
		bin, nin := bl.InputShape(), nl.InputShape()
		bout, nout := bl.OutputShape(), nl.OutputShape()
		if bin.C != nin.C || bin.H != nin.H || bin.W != nin.W ||
			bout.C != nout.C || bout.H != nout.H || bout.W != nout.W {
			return nil, fmt.Errorf("runtime: layer %q is %v->%v in the base, %v->%v in the network",
				nl.Name(), bin, bout, nin, nout)
		}
		// The layer runs in its input buffer's layout: lower inserts the
		// transform bringing the activations there before the layer op.
		layouts[li] = base.Buffers[op.In].Layout
		forced[li] = op.Alg
		li++
	}
	if li != len(net.Layers) {
		return nil, fmt.Errorf("runtime: base program has %d layer ops for %d layers", li, len(net.Layers))
	}
	// Algorithm selection is pinned through forced; the remaining lowering
	// choices (in-place aliasing, verification) follow the base program's
	// options.
	return lower(net, base.PlannerName, layouts, Options{NoInPlace: base.Opts.NoInPlace, Verify: base.Opts.Verify}, forced)
}

// CompileFixed lowers a network with every layer in one layout, the
// single-layout policy of the library emulations.  It needs no device or
// planner and is the baseline the planned programs are compared against.
func CompileFixed(net *network.Network, layout tensor.Layout) (*Program, error) {
	return CompileFixedWithOptions(net, layout, Options{})
}

// CompileFixedWithOptions is CompileFixed with explicit lowering options.  A
// layer with no kernel for the layout fails the lowering.
func CompileFixedWithOptions(net *network.Network, layout tensor.Layout, opts Options) (*Program, error) {
	if net == nil || len(net.Layers) == 0 {
		return nil, fmt.Errorf("runtime: cannot compile an empty network")
	}
	return lower(net, fmt.Sprintf("fixed-%v", layout), uniform(net, layout), opts, nil)
}

// CompileFixedAlg lowers a network with every layer in one layout and every
// convolution pinned to one algorithm, bypassing selection entirely.  The
// golden test suite uses it to hold each production algorithm against
// ReferenceForward on every workload network.
func CompileFixedAlg(net *network.Network, layout tensor.Layout, alg kernels.ConvAlgorithm) (*Program, error) {
	if net == nil || len(net.Layers) == 0 {
		return nil, fmt.Errorf("runtime: cannot compile an empty network")
	}
	forced := make([]kernels.ConvAlgorithm, len(net.Layers))
	for i, l := range net.Layers {
		if _, ok := l.(*layers.Conv); ok {
			forced[i] = alg
		}
	}
	return lower(net, fmt.Sprintf("fixed-%v-%v", layout, alg), uniform(net, layout), Options{}, forced)
}

// uniform is the per-layer layout list of a single-layout program.
func uniform(net *network.Network, layout tensor.Layout) []tensor.Layout {
	layouts := make([]tensor.Layout, len(net.Layers))
	for i := range layouts {
		layouts[i] = layout
	}
	return layouts
}

// selectConvAlgorithm picks the convolution strategy for one conv layer,
// through the analytic heuristic or the measured probe.
func selectConvAlgorithm(cfg kernels.ConvConfig, lay tensor.Layout, opts Options) (kernels.ConvAlgorithm, error) {
	if opts.Probe {
		alg, _, err := autotune.ProbeConvAlgorithm(cfg, lay)
		return alg, err
	}
	return autotune.SelectConvAlgorithm(cfg), nil
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

// AddReshape returns a view of src with the given logical shape: src itself
// when the shape already matches, otherwise the output of an appended
// OpReshape — a zero-copy alias whenever the layout permits
// (tensor.CanReinterpret), a canonical-order copy elsewhere.
func (p *Program) AddReshape(src BufferID, shape tensor.Shape, tag string) (BufferID, error) {
	have, lay := p.Buffers[src].Shape, p.Buffers[src].Layout
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

// lower builds the op list for a network given the layout each layer runs in.
// A non-nil forced slice pins the convolution algorithm per layer (CompileLike
// copying a base program's choices); otherwise layers select per opts.
func lower(net *network.Network, plannerName string, layouts []tensor.Layout, opts Options, forced []kernels.ConvAlgorithm) (*Program, error) {
	p := &Program{Net: net, PlannerName: plannerName, Opts: opts}
	cur := p.AddBuffer(net.InputShape(), layouts[0], NoBuffer)
	p.Input = cur

	for i, l := range net.Layers {
		lay := layouts[i]
		if from := p.Buffers[cur].Layout; from != lay {
			out := p.AddBuffer(p.Buffers[cur].Shape, lay, NoBuffer)
			p.Ops = append(p.Ops, Op{
				Kind: OpTransform,
				Name: fmt.Sprintf("%v->%v before %s", from, lay, l.Name()),
				In:   cur, Out: out, Scratch: NoBuffer, Aux: NoBuffer,
			})
			cur = out
		}
		var err error
		if cur, err = p.AddReshape(cur, l.InputShape(), "before "+l.Name()); err != nil {
			return nil, err
		}
		alg := kernels.ConvAlgDirect
		if forced != nil {
			alg = forced[i]
		} else if conv, ok := l.(*layers.Conv); ok && opts.ConvAlgorithms {
			if alg, err = selectConvAlgorithm(conv.Cfg, lay, opts); err != nil {
				return nil, fmt.Errorf("runtime: selecting algorithm for %q: %w", l.Name(), err)
			}
		}
		if cur, err = p.AddLayer(OpLayer, l.Name(), l, cur, alg, !opts.NoInPlace); err != nil {
			return nil, err
		}
	}
	p.Output = cur

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
