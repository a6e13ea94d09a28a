package runtime

import (
	"fmt"

	"memcnn/internal/gpusim"
	"memcnn/internal/tensor"
)

// ShardOptions control how a program is cut into pipeline stages.
type ShardOptions struct {
	// Devices assigns one device per stage.  When nil every stage runs on
	// the native CPU device.  When set, its length must equal the stage
	// count passed to Shard.
	Devices []Device
}

// Stage is one contiguous slice of a sharded program's op list, compiled into
// a self-contained sub-program with its own memory plan, bound to one device.
type Stage struct {
	Index  int
	Device Device
	// Prog is the stage's sub-program: the base ops [FirstOp, LastOp]
	// re-indexed over the stage's own buffers, with the stage boundary as
	// program input/output and a per-stage arena plan.
	Prog *Program
	// FirstOp and LastOp delimit the stage in the base program's op list.
	FirstOp, LastOp int
	// TransferInBytes is the size of the cross-device transfer feeding this
	// stage (zero for the first stage, which is fed by the caller).
	TransferInBytes int64
	// Weight is the stage's partitioning weight: the summed opFLOPs of its
	// ops.
	Weight float64
}

// Ops returns the number of ops the stage executes.
func (s *Stage) Ops() int { return s.LastOp - s.FirstOp + 1 }

// ShardedProgram is a compiled program cut into contiguous pipeline stages.
// The lowered op list is a linear chain — every op consumes the previous op's
// output — so any op boundary is a valid cut: exactly one activation buffer
// crosses it, and that buffer becomes an explicit cross-device transfer.
type ShardedProgram struct {
	Base   *Program
	Stages []*Stage
}

// SummedPeakBytes is the total arena footprint across stages — the cost of
// sharding, reported against the single-device plan's PeakBytes.
func (sp *ShardedProgram) SummedPeakBytes() int64 {
	var total int64
	for _, st := range sp.Stages {
		total += st.Prog.Mem.PeakBytes()
	}
	return total
}

// TransferBytes is the total cross-device traffic per batch.
func (sp *ShardedProgram) TransferBytes() int64 {
	var total int64
	for _, st := range sp.Stages {
		total += st.TransferInBytes
	}
	return total
}

// String summarises the sharding.
func (sp *ShardedProgram) String() string {
	return fmt.Sprintf("ShardedProgram{%s, %d stages, flops-balanced, %.2f MiB summed arena vs %.2f MiB unsharded, %.2f MiB transfers}",
		sp.Base.Net.Name, len(sp.Stages),
		float64(sp.SummedPeakBytes())/(1<<20), float64(sp.Base.Mem.PeakBytes())/(1<<20),
		float64(sp.TransferBytes())/(1<<20))
}

// Shard cuts a compiled program into `stages` contiguous pipeline stages,
// choosing the cuts that minimise the largest stage weight: the estimated
// arithmetic work per stage (layer ops weigh their Cost-model FLOPs on the
// paper's Titan Black, data-movement ops one op per element moved), because
// pipeline throughput is set by the slowest stage.  Each stage is compiled
// into a self-contained sub-program with its own arena plan; the buffer
// crossing each cut becomes an explicit transfer onto the next stage's
// device.  A stage count above the op count is clamped (every program
// supports at least one stage), so tiny networks stay shardable with a
// generic -devices flag.
func Shard(p *Program, stages int, opts ShardOptions) (*ShardedProgram, error) {
	if p == nil || len(p.Ops) == 0 {
		return nil, fmt.Errorf("runtime: cannot shard an empty program")
	}
	if stages <= 0 {
		return nil, fmt.Errorf("runtime: stage count %d must be positive", stages)
	}
	if opts.Devices != nil && len(opts.Devices) != stages {
		return nil, fmt.Errorf("runtime: %d devices for %d stages", len(opts.Devices), stages)
	}
	if stages > len(p.Ops) {
		stages = len(p.Ops)
	}
	model := gpusim.TitanBlack()
	weights := make([]float64, len(p.Ops))
	for i, op := range p.Ops {
		weights[i] = opFLOPs(model, p, op)
	}
	cuts := partition(weights, stages)

	sp := &ShardedProgram{Base: p}
	first := 0
	for i, last := range cuts {
		prog, err := subProgram(p, i, first, last)
		if err != nil {
			return nil, err
		}
		var dev Device = CPUDevice{}
		if opts.Devices != nil {
			dev = opts.Devices[i]
		}
		st := &Stage{
			Index: i, Device: dev, Prog: prog,
			FirstOp: first, LastOp: last,
		}
		if i > 0 {
			st.TransferInBytes = p.Buffers[p.Ops[first].In].Bytes()
		}
		for _, w := range weights[first : last+1] {
			st.Weight += w
		}
		sp.Stages = append(sp.Stages, st)
		first = last + 1
	}
	if p.Opts.Verify {
		// The base program was verified at compile time; the cut re-indexes
		// buffers and re-roots alias chains, so each stage sub-program must
		// survive the same checks on its own.
		for _, st := range sp.Stages {
			if err := VerifyProgram(st.Prog); err != nil {
				return nil, fmt.Errorf("runtime: verifying stage %d [%d,%d]: %w", st.Index, st.FirstOp, st.LastOp, err)
			}
		}
	}
	return sp, nil
}

// opFLOPs estimates one op's arithmetic weight: layer ops are priced through
// their Cost kernel sequence on the model hardware; data-movement ops count
// one operation per element moved; alias reshapes are free.
func opFLOPs(model *gpusim.Device, p *Program, op Op) float64 {
	if op.Kind == OpLayer {
		stats, err := op.Layer.Cost(model, p.Buffers[op.In].Layout, costOptionsFor(op, p.Buffers[op.In].Layout))
		if err == nil {
			var flops float64
			for _, s := range stats {
				flops += s.FLOPs
			}
			if flops > 0 {
				return flops
			}
		}
	}
	if p.Buffers[op.Out].AliasOf != NoBuffer {
		return 0
	}
	return float64(p.Buffers[op.In].Shape.Elems())
}

// partition cuts the weight sequence into k non-empty contiguous runs
// minimising the maximum run weight (classic linear partitioning, exact DP)
// and returns the last index of each run.
func partition(weights []float64, k int) []int {
	n := len(weights)
	prefix := make([]float64, n+1)
	for i, w := range weights {
		prefix[i+1] = prefix[i] + w
	}
	sum := func(i, j int) float64 { return prefix[j+1] - prefix[i] } // inclusive

	// best[i][m]: minimal max-run-weight partitioning ops [0, i] into m+1 runs.
	best := make([][]float64, n)
	cut := make([][]int, n)
	for i := range best {
		best[i] = make([]float64, k)
		cut[i] = make([]int, k)
		best[i][0] = sum(0, i)
		cut[i][0] = -1
	}
	for m := 1; m < k; m++ {
		for i := m; i < n; i++ {
			bestCost, bestJ := -1.0, -1
			for j := m - 1; j < i; j++ {
				cost := best[j][m-1]
				if tail := sum(j+1, i); tail > cost {
					cost = tail
				}
				if bestJ == -1 || cost < bestCost {
					bestCost, bestJ = cost, j
				}
			}
			best[i][m], cut[i][m] = bestCost, bestJ
		}
	}

	cuts := make([]int, k)
	i, m := n-1, k-1
	for m >= 0 {
		cuts[m] = i
		i = cut[i][m]
		m--
	}
	return cuts
}

// subProgram compiles base ops [first, last] into a self-contained stage
// program: the boundary buffer feeding the stage becomes the program input
// (always a root — the transfer writes into it), every referenced buffer is
// re-indexed, and alias chains whose root precedes the stage are re-rooted at
// the stage input (the linear chain threads their shared storage through the
// boundary).  The stage gets its own arena plan.
func subProgram(base *Program, index, first, last int) (*Program, error) {
	sp := &Program{
		Net:         base.Net,
		PlannerName: fmt.Sprintf("%s/stage%d", base.PlannerName, index),
		Opts:        base.Opts,
	}
	idmap := make(map[BufferID]BufferID)
	add := func(old, alias BufferID) BufferID {
		ob := base.Buffers[old]
		id := sp.AddBuffer(ob.Shape, ob.Layout, alias)
		sp.Buffers[id].Scratch = ob.Scratch
		idmap[old] = id
		return id
	}

	boundary := base.Input
	if first > 0 {
		boundary = base.Ops[first].In
	}
	sp.Input = add(boundary, NoBuffer)

	mapBuf := func(old BufferID) BufferID {
		if id, ok := idmap[old]; ok {
			return id
		}
		ob := base.Buffers[old]
		if ob.AliasOf == NoBuffer {
			return add(old, NoBuffer)
		}
		root, ok := idmap[base.root(old)]
		if !ok {
			// The alias's root precedes the stage; its storage reaches the
			// stage through the boundary buffer, which shares it.
			root = sp.Input
		}
		if !tensor.CanReinterpret(sp.Buffers[root].Shape, ob.Shape, ob.Layout) {
			// The relabelled view cannot reinterpret its new root: demote the
			// alias to a root of its own; the executor falls back to a copy.
			return add(old, NoBuffer)
		}
		return add(old, root)
	}

	for i := first; i <= last; i++ {
		op := base.Ops[i]
		op.In = mapBuf(op.In)
		op.Out = mapBuf(op.Out)
		if op.Scratch != NoBuffer {
			op.Scratch = mapBuf(op.Scratch)
		}
		if op.Aux != NoBuffer {
			op.Aux = mapBuf(op.Aux)
		}
		sp.Ops = append(sp.Ops, op)
	}
	sp.Output = idmap[base.Ops[last].Out]

	// The stage must be self-contained: every buffer its ops read is either
	// the boundary input or produced by an earlier in-stage op.  Training
	// programs break this — backward ops reach across the cut for forward
	// activations (Aux) and the loss gradient reads the caller-staged label
	// vector (ExtraInputs) — and before this check subProgram silently
	// compiled such cuts into stages whose executor would read unwritten
	// arena storage.  Reject the cut instead.
	defined := make([]bool, len(sp.Buffers))
	defined[sp.root(sp.Input)] = true
	checkRead := func(op int, id BufferID) error {
		if !defined[sp.root(id)] {
			return fmt.Errorf("runtime: stage %d [%d,%d]: op %d (%s) reads buffer %d, whose value is produced outside the stage; the program cannot be cut here",
				index, first, last, op, base.Ops[first+op].Name, id)
		}
		return nil
	}
	for i, op := range sp.Ops {
		if err := checkRead(i, op.In); err != nil {
			return nil, err
		}
		if op.Aux != NoBuffer {
			if err := checkRead(i, op.Aux); err != nil {
				return nil, err
			}
		}
		defined[sp.root(op.Out)] = true
	}

	mem, err := PlanMemory(sp)
	if err != nil {
		return nil, fmt.Errorf("runtime: planning stage %d [%d,%d]: %w", index, first, last, err)
	}
	sp.Mem = mem
	return sp, nil
}
