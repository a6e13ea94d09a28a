// Package verify is the whole-program static checker for the compiled IR.
//
// Every compiler in the repository — runtime.Compile and CompileWithOptions,
// Program.WithBatch and train.CompileTraining — produces the same artefact: a
// runtime.Program, an op list over explicit buffers plus an arena memory plan
// (Shard compiles nothing: its stages are op ranges of the program it cuts).  The paper's
// claim that memory efficiency comes from planning rather than runtime
// bookkeeping only holds if those plans are sound, so this package turns the
// invariants the executor silently relies on into machine-checked ones:
//
//   - dataflow: every buffer an op reads was written by an earlier op, the
//     program input, or an ExtraInputs binding, and the program output holds
//     a value when the last op retires (check a);
//   - alias: AliasOf chains point strictly backwards (hence are acyclic and
//     root resolution terminates), every view is reinterpret-compatible with
//     its root, and no view is rooted in op-local scratch (check b);
//   - inplace: no op reads a buffer whose storage a later in-place write
//     (ReLU running over its own input) already clobbered, and ops only
//     write over their own operands when the layer declares that safe
//     (check c);
//   - workspace: the scratch buffer attached to an op holds at least what
//     the layer declares for the buffer's layout —
//     Layer.WorkspaceElems for forward ops (GEMM unroll, flatten/softmax
//     staging), BackwardWorkspaceElems and GradWorkspaceElems
//     for gradient ops (GEMM gradient operands, LRN staging) — and is never
//     attached to an op that cannot consume it (check d);
//   - plan: the memory plan's recorded live ranges match liveness recomputed
//     from the op list, aliases share their root's offset, every extent lies
//     inside the arena and no two live roots overlap (an O(n log n) offset
//     sweep); training programs additionally recompute each checkpointed
//     activation at most once and follow the backward-data → grad-filter →
//     SGD order, with no op touching a layer after its SGD update (check e);
//   - determinism: every op records the one kernel label the compiler writes,
//     layers.KernelAlg of its layer (GEMM for a convolution) on a forward,
//     recompute or gradient op and the zero value on every other, so a trace
//     or report never names a kernel that does not run (check f).
//
// Importing the package registers Program with runtime.RegisterVerifier, so
// any compile run with Options.Verify (or train.Options.Verify) fails with
// an *Error naming the offending op and buffer instead of returning an
// unsound program.  Tests call Check directly for the full diagnostic list.
package verify

import (
	"fmt"
	"strings"

	"memcnn/internal/kernels"
	"memcnn/internal/layers"
	"memcnn/internal/runtime"
	"memcnn/internal/tensor"
)

// Check names, one per verified invariant family.  Diagnostic.Check carries
// one of these so tests (and humans reading CI output) can tell which
// contract a program broke.
const (
	CheckStructure   = "structure"   // buffer/op references are well-formed
	CheckDataflow    = "dataflow"    // def-before-use over the op list
	CheckAlias       = "alias"       // alias chains are sound views
	CheckInPlace     = "inplace"     // no read of clobbered storage
	CheckWorkspace   = "workspace"   // op scratch fits the layer's kernel
	CheckPlan        = "plan"        // memory plan matches the op list
	CheckTraining    = "training"    // recompute/SGD ordering
	CheckDeterminism = "determinism" // accumulation order is pinned
)

// Diagnostic is one verified-contract violation, anchored to the op and
// buffer it concerns where the check is that specific (Op is -1 and Buffer
// is runtime.NoBuffer otherwise).
type Diagnostic struct {
	Check  string
	Op     int
	OpName string
	Buffer runtime.BufferID
	Msg    string
}

// String renders the diagnostic as "[check] op N (name): buffer B: msg".
func (d Diagnostic) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s]", d.Check)
	if d.Op >= 0 {
		fmt.Fprintf(&b, " op %d (%s):", d.Op, d.OpName)
	}
	if d.Buffer != runtime.NoBuffer {
		fmt.Fprintf(&b, " buffer %d:", d.Buffer)
	}
	b.WriteByte(' ')
	b.WriteString(d.Msg)
	return b.String()
}

// Error aggregates every diagnostic the checker produced for one program.
type Error struct {
	// Name identifies the rejected program (its planner name).
	Name  string
	Diags []Diagnostic
}

// Error lists every diagnostic, one per line.
func (e *Error) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "verify: %s: %d finding(s)", e.Name, len(e.Diags))
	for _, d := range e.Diags {
		b.WriteString("\n\t")
		b.WriteString(d.String())
	}
	return b.String()
}

func init() {
	runtime.RegisterVerifier(Program)
}

// Program runs every check over a compiled program and returns an *Error
// carrying the full diagnostic list, or nil when the program is sound.  It
// is the function registered behind Options.Verify.
func Program(p *runtime.Program) error {
	diags := Check(p)
	if len(diags) == 0 {
		return nil
	}
	name := "<nil program>"
	if p != nil {
		name = p.PlannerName
	}
	return &Error{Name: name, Diags: diags}
}

// Check runs every check over a compiled program and returns the full
// diagnostic list (empty when the program is sound).  Later checks assume
// the structure earlier ones establish — out-of-range buffer references or
// unsound alias chains end the run early rather than panic the checker.
func Check(p *runtime.Program) []Diagnostic {
	c := &checker{p: p}
	if p == nil {
		c.add(CheckStructure, -1, runtime.NoBuffer, "program is nil")
		return c.diags
	}
	if !c.structure() {
		return c.diags
	}
	root, ok := c.aliases()
	if !ok {
		return c.diags
	}
	c.root = root
	c.dataflow()
	c.opContracts()
	c.trainingOrder()
	c.plan()
	return c.diags
}

type checker struct {
	p     *runtime.Program
	root  []runtime.BufferID // alias-resolved storage root per buffer
	diags []Diagnostic
}

func (c *checker) add(check string, op int, buf runtime.BufferID, format string, args ...any) {
	d := Diagnostic{Check: check, Op: op, Buffer: buf, Msg: fmt.Sprintf(format, args...)}
	if op >= 0 && op < len(c.p.Ops) {
		d.OpName = c.p.Ops[op].Name
	}
	c.diags = append(c.diags, d)
}

// structure validates that every buffer reference — program input/output,
// ExtraInputs, op operands — lands inside the buffer table, that buffer IDs
// match their indices, and that each op kind carries the operands it is
// defined to.  All later checks index through these references, so a failure
// here ends the run.
func (c *checker) structure() bool {
	p := c.p
	if len(p.Buffers) == 0 {
		c.add(CheckStructure, -1, runtime.NoBuffer, "program has no buffers")
		return false
	}
	for i, b := range p.Buffers {
		if b.ID != runtime.BufferID(i) {
			c.add(CheckStructure, -1, runtime.BufferID(i), "buffer at index %d carries ID %d", i, b.ID)
		}
	}
	inRange := func(id runtime.BufferID) bool {
		return id >= 0 && int(id) < len(p.Buffers)
	}
	if !inRange(p.Input) {
		c.add(CheckStructure, -1, p.Input, "program input %d is out of range", p.Input)
	}
	if !inRange(p.Output) {
		c.add(CheckStructure, -1, p.Output, "program output %d is out of range", p.Output)
	}
	for _, id := range p.ExtraInputs {
		if !inRange(id) {
			c.add(CheckStructure, -1, id, "extra input %d is out of range", id)
		}
	}
	for i, op := range p.Ops {
		for _, ref := range []struct {
			name     string
			id       runtime.BufferID
			optional bool
		}{
			{"In", op.In, false},
			{"Out", op.Out, false},
			{"Scratch", op.Scratch, true},
			{"Aux", op.Aux, true},
		} {
			if ref.optional && ref.id == runtime.NoBuffer {
				continue
			}
			if !inRange(ref.id) {
				c.add(CheckStructure, i, ref.id, "%s operand %d is out of range", ref.name, ref.id)
			}
		}
		switch op.Kind {
		case runtime.OpLayer, runtime.OpRecompute, runtime.OpLossGrad,
			runtime.OpBackward, runtime.OpGradFilter, runtime.OpSGD:
			if op.Layer == nil {
				c.add(CheckStructure, i, runtime.NoBuffer, "%v op has no layer", op.Kind)
			}
		case runtime.OpTransform, runtime.OpReshape:
		default:
			c.add(CheckStructure, i, runtime.NoBuffer, "unknown op kind %d", int(op.Kind))
		}
		switch op.Kind {
		case runtime.OpLossGrad:
			if op.Aux == runtime.NoBuffer {
				c.add(CheckStructure, i, runtime.NoBuffer, "loss-grad op has no label operand (Aux)")
			}
		case runtime.OpBackward, runtime.OpGradFilter:
			// Aux optional: the forward activation, where the layer needs it.
		default:
			if op.Aux != runtime.NoBuffer {
				c.add(CheckStructure, i, op.Aux, "%v op carries an Aux operand; only training read ops may", op.Kind)
			}
		}
		if op.Scratch != runtime.NoBuffer && inRange(op.Scratch) {
			if sb := p.Buffers[op.Scratch]; !sb.Scratch {
				c.add(CheckStructure, i, op.Scratch, "Scratch operand %d is not an op-local scratch buffer", op.Scratch)
			}
		}
	}
	// Scratch buffers are private to the op that owns them: they must never
	// surface as a program boundary.
	for _, id := range append([]runtime.BufferID{p.Input, p.Output}, p.ExtraInputs...) {
		if inRange(id) && p.Buffers[id].Scratch {
			c.add(CheckStructure, -1, id, "scratch buffer %d is a program input or output", id)
		}
	}
	return len(c.diags) == 0
}

// aliases validates the view structure (check b): every AliasOf link points
// strictly backwards — which makes chains acyclic and root resolution
// terminate by construction — every view reinterprets its root's storage
// without moving bytes, and no view is rooted in (or flagged as) op-local
// scratch.  It returns the resolved storage root per buffer; chain-structure
// failures make roots meaningless, so they end the run.
func (c *checker) aliases() ([]runtime.BufferID, bool) {
	p := c.p
	n := len(p.Buffers)
	root := make([]runtime.BufferID, n)
	broken := false
	for i, b := range p.Buffers {
		id := runtime.BufferID(i)
		if b.AliasOf == runtime.NoBuffer {
			root[i] = id
			continue
		}
		if b.AliasOf < 0 || int(b.AliasOf) >= n {
			c.add(CheckAlias, -1, id, "buffer %d aliases out-of-range buffer %d", id, b.AliasOf)
			broken = true
			continue
		}
		if b.AliasOf >= id {
			c.add(CheckAlias, -1, id, "buffer %d aliases buffer %d: alias links must point strictly backwards, or root resolution would not terminate", id, b.AliasOf)
			broken = true
			continue
		}
		root[i] = root[b.AliasOf]
	}
	if broken {
		return nil, false
	}
	for i, b := range p.Buffers {
		if b.AliasOf == runtime.NoBuffer {
			continue
		}
		id := runtime.BufferID(i)
		r := p.Buffers[root[i]]
		if b.Scratch {
			c.add(CheckAlias, -1, id, "scratch buffer %d must own its storage, not alias buffer %d", id, root[i])
		}
		if r.Scratch {
			c.add(CheckAlias, -1, id, "buffer %d is a view of op-local scratch buffer %d", id, root[i])
		}
		if !tensor.CanReinterpret(r.Shape, b.Shape, r.Layout) {
			c.add(CheckAlias, -1, id, "buffer %d (%v) cannot reinterpret its root %d (%v under %v) without moving data", id, b.Shape, root[i], r.Shape, r.Layout)
		}
	}
	return root, true
}

// dataflow walks the op list with an epoch per storage root (checks a and c):
// every byte-changing write bumps its root's epoch, and a buffer's value is
// current only while its recorded epoch matches its root's.  A read of a
// buffer that was never written is a def-before-use violation; a read of a
// buffer whose root moved on — an in-place ReLU ran over the storage, or a
// copy retargeted a sibling view — is a clobbered-storage hazard.  Alias
// reshapes relabel the current value without bumping, which is exactly why
// they are free at run time.
func (c *checker) dataflow() {
	p := c.p
	n := len(p.Buffers)
	epoch := make([]int, n)  // per root: bumped by every byte-changing write
	cur := make([]int, n)    // per buffer: root epoch at which its value is current (0 = none)
	writer := make([]int, n) // per root: op index of the last write, for messages

	markInput := func(id runtime.BufferID) {
		r := c.root[id]
		epoch[r]++
		cur[id] = epoch[r]
		writer[r] = -1
	}
	markInput(p.Input)
	for _, id := range p.ExtraInputs {
		markInput(id)
	}

	read := func(op int, id runtime.BufferID) {
		if p.Buffers[id].Scratch {
			c.add(CheckDataflow, op, id, "reads op-local scratch buffer %d, whose contents are unspecified between ops", id)
			return
		}
		r := c.root[id]
		switch {
		case cur[id] != 0 && cur[id] == epoch[r]:
			// Current value: the common case.
		case cur[id] == 0 && epoch[r] == 0:
			c.add(CheckDataflow, op, id, "reads buffer %d before any op writes it", id)
		case cur[id] == 0:
			c.add(CheckDataflow, op, id, "reads buffer %d, a view whose value was never materialised", id)
		default:
			c.add(CheckInPlace, op, id, "reads buffer %d after op %d (%s) overwrote its storage", id, writer[r], p.Ops[writer[r]].Name)
		}
	}
	write := func(op int, id runtime.BufferID) {
		if p.Buffers[id].Scratch {
			c.add(CheckDataflow, op, id, "writes its result into op-local scratch buffer %d", id)
			return
		}
		r := c.root[id]
		epoch[r]++
		cur[id] = epoch[r]
		writer[r] = op
	}

	for i, op := range p.Ops {
		switch op.Kind {
		case runtime.OpReshape:
			read(i, op.In)
			if p.Buffers[op.Out].AliasOf != runtime.NoBuffer {
				// Zero-copy relabel: the executor skips the op, so the view
				// only holds the input's value if they truly share storage.
				if c.root[op.Out] != c.root[op.In] {
					c.add(CheckAlias, i, op.Out, "relabels buffer %d as view %d, but the view is rooted in buffer %d, not %d: the reshape would read unrelated storage", op.In, op.Out, c.root[op.Out], c.root[op.In])
				}
				cur[op.Out] = epoch[c.root[op.Out]]
				continue
			}
			if c.root[op.Out] == c.root[op.In] {
				c.add(CheckInPlace, i, op.Out, "copy-reshapes buffer %d over its own storage", op.In)
			}
			write(i, op.Out)
		case runtime.OpTransform:
			read(i, op.In)
			if c.root[op.Out] == c.root[op.In] {
				c.add(CheckInPlace, i, op.Out, "re-linearises buffer %d over its own storage; a transform cannot run in place", op.In)
			}
			write(i, op.Out)
		case runtime.OpLayer, runtime.OpRecompute:
			read(i, op.In)
			if c.root[op.Out] == c.root[op.In] && !c.inPlaceOK(op) {
				c.add(CheckInPlace, i, op.Out, "writes buffer %d in place over its input %d, but layer %q does not declare in-place execution safe here", op.Out, op.In, op.Name)
			}
			write(i, op.Out)
		case runtime.OpLossGrad, runtime.OpBackward, runtime.OpGradFilter:
			read(i, op.In)
			if op.Aux != runtime.NoBuffer {
				read(i, op.Aux)
			}
			if c.root[op.Out] == c.root[op.In] {
				c.add(CheckInPlace, i, op.Out, "writes buffer %d over the gradient %d it is still reading", op.Out, op.In)
			}
			if op.Aux != runtime.NoBuffer && c.root[op.Out] == c.root[op.Aux] {
				c.add(CheckInPlace, i, op.Out, "writes buffer %d over the forward activation %d it is still reading", op.Out, op.Aux)
			}
			write(i, op.Out)
		case runtime.OpSGD:
			read(i, op.In)
			if op.Out != op.In {
				c.add(CheckTraining, i, op.Out, "sgd op must carry its gradient as both In and Out (it defines no new value), got In %d, Out %d", op.In, op.Out)
				write(i, op.Out)
			}
		}
	}

	r := c.root[p.Output]
	switch {
	case cur[p.Output] != 0 && cur[p.Output] == epoch[r]:
	case cur[p.Output] == 0:
		c.add(CheckDataflow, -1, p.Output, "program output buffer %d is never written", p.Output)
	default:
		c.add(CheckInPlace, -1, p.Output, "program output buffer %d is overwritten by op %d (%s) before delivery", p.Output, writer[r], p.Ops[writer[r]].Name)
	}
}

// inPlaceOK reports whether a layer op may legally write over its own input
// storage: the layer declares ForwardsInPlace for the layout, and input and
// output agree on shape and layout so every element is read at the index it
// is written.
func (c *checker) inPlaceOK(op runtime.Op) bool {
	in, out := c.p.Buffers[op.In], c.p.Buffers[op.Out]
	return op.Layer.ForwardsInPlace(in.Layout) && in.Shape == out.Shape && in.Layout == out.Layout
}

// opContracts checks per-op label and workspace contracts (checks d and f):
// every op records its kernel's label (kernelLabel), the attached scratch
// buffer holds at least what the kernel requires, and scratch is never
// attached to an op that cannot consume it.
func (c *checker) opContracts() {
	p := c.p
	for i, op := range p.Ops {
		c.kernelLabel(i, op)
		switch op.Kind {
		case runtime.OpLayer, runtime.OpRecompute:
			c.layerContract(i, op)
		case runtime.OpBackward:
			bl, ok := op.Layer.(layers.BackwardLayer)
			if !ok {
				c.add(CheckWorkspace, i, runtime.NoBuffer, "backward op's layer %q has no backward pass", op.Name)
				continue
			}
			c.requireScratch(i, op, bl.BackwardWorkspaceElems(), "backward pass")
		case runtime.OpGradFilter:
			tl, ok := op.Layer.(layers.TrainableLayer)
			if !ok {
				c.add(CheckWorkspace, i, runtime.NoBuffer, "grad-filter op's layer %q has no parameters", op.Name)
				continue
			}
			if got, want := p.Buffers[op.Out].Shape, tl.GradShape(); got != want {
				c.add(CheckTraining, i, op.Out, "parameter gradient buffer %d has shape %v, layer %q gradients are %v", op.Out, got, op.Name, want)
			}
			c.requireScratch(i, op, tl.GradWorkspaceElems(), "grad-filter pass")
		case runtime.OpSGD:
			if _, ok := op.Layer.(layers.TrainableLayer); !ok {
				c.add(CheckTraining, i, runtime.NoBuffer, "sgd op's layer %q has no parameters to update", op.Name)
			}
			if op.LR <= 0 {
				c.add(CheckTraining, i, runtime.NoBuffer, "sgd op carries learning rate %v", op.LR)
			}
		default:
			if op.Scratch != runtime.NoBuffer {
				c.add(CheckWorkspace, i, op.Scratch, "%v op carries scratch buffer %d it cannot consume", op.Kind, op.Scratch)
			}
		}
	}
}

// kernelLabel flags an op whose recorded kernel label is not the one the
// compiler writes: layers.KernelAlg of its layer on an op that runs one of
// the layer's kernels (forward, recompute, backward-data, grad-filter), the
// zero value on every other op.  Any other value would name, in a trace or a
// report, a kernel the op does not run.
func (c *checker) kernelLabel(i int, op runtime.Op) {
	var want kernels.ConvAlgorithm
	switch op.Kind {
	case runtime.OpLayer, runtime.OpRecompute, runtime.OpBackward, runtime.OpGradFilter:
		want = layers.KernelAlg(op.Layer)
	}
	if op.Alg != want {
		c.add(CheckDeterminism, i, runtime.NoBuffer, "%v op %q records kernel %v, but it runs %v", op.Kind, op.Name, op.Alg, want)
	}
}

// layerContract checks a forward layer op (OpLayer/OpRecompute) against its
// layer's kernel, by asking the layer what the executor will ask of it: how
// much workspace the kernel needs in the buffer's layout.
func (c *checker) layerContract(i int, op runtime.Op) {
	need := op.Layer.WorkspaceElems(c.p.Buffers[op.Out].Layout)
	if need == 0 && op.Scratch != runtime.NoBuffer {
		c.add(CheckWorkspace, i, op.Scratch, "scratch buffer %d is attached to layer %q, whose kernel cannot consume a workspace", op.Scratch, op.Name)
		return
	}
	c.requireScratch(i, op, need, "forward pass")
}

// requireScratch checks that the op's scratch buffer holds at least `need`
// elements (check d).  A missing scratch buffer for a kernel that requires
// one would make the executor hand the kernel a nil slice.
func (c *checker) requireScratch(i int, op runtime.Op, need int, path string) {
	if need <= 0 {
		return
	}
	if op.Scratch == runtime.NoBuffer {
		c.add(CheckWorkspace, i, runtime.NoBuffer, "layer %q needs a %d-element workspace on the %s but the op carries no scratch buffer", op.Name, need, path)
		return
	}
	if got := c.p.Buffers[op.Scratch].Elems(); got < need {
		c.add(CheckWorkspace, i, op.Scratch, "scratch buffer %d holds %d elements but layer %q needs %d on the %s", op.Scratch, got, op.Name, need, path)
	}
}

// trainingOrder checks the training-specific op ordering (part of check e):
// each checkpointed activation is recomputed at most once, every SGD update
// consumes the parameter gradient a grad-filter op on the same layer
// produced earlier, and no op touches a layer after its SGD ran — the update
// mutates the layer's parameters in place, so any later forward, recompute
// or backward through the layer would read mid-step weights.
func (c *checker) trainingOrder() {
	p := c.p
	recomputedAt := make(map[layers.Layer]int)
	sgdAt := make(map[layers.Layer]int)
	gradBuf := make(map[layers.Layer]runtime.BufferID)
	for i, op := range p.Ops {
		if op.Layer == nil {
			continue
		}
		if at, ok := sgdAt[op.Layer]; ok {
			c.add(CheckTraining, i, runtime.NoBuffer, "op runs layer %q after op %d already applied its SGD update: it would read mid-step parameters", op.Name, at)
		}
		switch op.Kind {
		case runtime.OpRecompute:
			if first, ok := recomputedAt[op.Layer]; ok {
				c.add(CheckTraining, i, op.Out, "layer %q is recomputed again (first recomputed at op %d): checkpointing bounds each activation to one recompute", op.Name, first)
			} else {
				recomputedAt[op.Layer] = i
			}
		case runtime.OpGradFilter:
			gradBuf[op.Layer] = op.Out
		case runtime.OpSGD:
			g, ok := gradBuf[op.Layer]
			switch {
			case !ok:
				c.add(CheckTraining, i, op.In, "sgd op has no preceding grad-filter for layer %q", op.Name)
			case c.root[op.In] != c.root[g]:
				c.add(CheckTraining, i, op.In, "sgd op reads buffer %d but layer %q's parameter gradient was computed into buffer %d", op.In, op.Name, g)
			}
			sgdAt[op.Layer] = i
		}
	}
}

// plan checks the memory plan against the op list (check e): the recorded
// live ranges must equal liveness recomputed from the ops — a stale plan
// (ops mutated after planning) is exactly as dangerous as a wrong one — and,
// with the ranges trusted, the recorded lower bound must equal the one they
// imply, the arena must not be under it, and the arena packing must place no
// two live roots on overlapping extents (MemPlan.Validate's offset sweep,
// which also confirms bounds and that aliases share their root's offset).
func (c *checker) plan() {
	p := c.p
	m := p.Mem
	if m == nil {
		c.add(CheckPlan, -1, runtime.NoBuffer, "program carries no memory plan")
		return
	}
	n := len(p.Buffers)
	if len(m.Offsets) != n || len(m.Live) != n {
		c.add(CheckPlan, -1, runtime.NoBuffer, "memory plan covers %d offsets and %d live ranges for %d buffers", len(m.Offsets), len(m.Live), n)
		return
	}

	// Recompute liveness exactly as PlanMemory does: Input and ExtraInputs
	// are written at -1, the output is read at len(ops), scratch lives only
	// inside its op, and aliases merge into their root.
	def := make([]int, n)
	last := make([]int, n)
	for i := range def {
		def[i] = len(p.Ops) + 1
		last[i] = -2
	}
	touch := func(id runtime.BufferID, op int, write bool) {
		r := c.root[id]
		if write && op < def[r] {
			def[r] = op
		}
		last[r] = max(last[r], op)
	}
	touch(p.Input, -1, true)
	for _, id := range p.ExtraInputs {
		touch(id, -1, true)
	}
	for i, op := range p.Ops {
		touch(op.In, i, false)
		touch(op.Out, i, true)
		if op.Aux != runtime.NoBuffer {
			touch(op.Aux, i, false)
		}
		if op.Scratch != runtime.NoBuffer {
			touch(op.Scratch, i, true)
		}
	}
	touch(p.Output, len(p.Ops), false)

	stale := false
	for i := range p.Buffers {
		r := c.root[i]
		if def[r] > len(p.Ops) {
			c.add(CheckPlan, -1, runtime.BufferID(i), "buffer %d is dead: no op defines or reads it", i)
			stale = true
			continue
		}
		want := runtime.Interval{Def: def[r], LastUse: last[r]}
		if m.Live[i] != want {
			c.add(CheckPlan, -1, runtime.BufferID(i), "plan records buffer %d live over [%d,%d] but the op list implies [%d,%d]: the plan is stale", i, m.Live[i].Def, m.Live[i].LastUse, want.Def, want.LastUse)
			stale = true
		}
	}
	if stale {
		// The overlap sweep reads m.Live; with ranges that contradict the op
		// list its verdict would be meaningless either way.
		return
	}
	// The lower bound, the most root elements live at any one op, explains
	// the arena's size; an arena under it must overlap two live roots.
	delta := make([]int, len(p.Ops)+3)
	for i, b := range p.Buffers {
		if b.AliasOf == runtime.NoBuffer {
			delta[def[i]+1] += b.Elems()
			delta[last[i]+2] -= b.Elems()
		}
	}
	bound, sum := 0, 0
	for _, d := range delta {
		sum += d
		bound = max(bound, sum)
	}
	if m.BoundElems != bound {
		c.add(CheckPlan, -1, runtime.NoBuffer, "plan records a lower bound of %d elems but the op list implies %d: the plan is stale", m.BoundElems, bound)
	}
	if m.ArenaElems < bound {
		c.add(CheckPlan, -1, runtime.NoBuffer, "arena of %d elems is under the liveness lower bound of %d", m.ArenaElems, bound)
	}
	if err := m.Validate(p); err != nil {
		c.add(CheckPlan, -1, runtime.NoBuffer, "%s", strings.TrimPrefix(err.Error(), "runtime: "))
	}
}
