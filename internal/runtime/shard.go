package runtime

import (
	"fmt"

	"memcnn/internal/layers"
)

// ShardOptions is Shard's options argument.  It holds no option: every stage
// runs on the host CPU.
type ShardOptions struct{}

// Stage is one contiguous range of a sharded program's op list: the base
// program's ops [FirstOp, LastOp], run over the base program's own arena.
type Stage struct {
	FirstOp, LastOp int
}

// ShardedProgram is a compiled program cut into contiguous pipeline stages.
// A stage is a range of the base program's ops, not a program of its own: a
// pipelined batch runs every stage over one instance of the base program's
// arena, so nothing is copied at a cut and the base memory plan holds as is.
type ShardedProgram struct {
	Base   *Program
	Stages []Stage
}

// Shard cuts a compiled program into `stages` contiguous pipeline stages,
// choosing the cuts that minimise the largest stage weight: the host work of
// its ops as opWork counts it from their shapes, because pipeline throughput
// is set by the slowest stage.  Any op boundary is a valid cut, since every
// stage runs over the same arena.  A stage count above the op count is
// clamped (every program supports at least one stage), so tiny networks stay
// shardable with a generic -devices flag.  A program with caller-staged
// inputs beyond its input (a training step's labels) is rejected: a
// pipelined batch stages only its input.
func Shard(p *Program, stages int, _ ShardOptions) (*ShardedProgram, error) {
	if p == nil || len(p.Ops) == 0 {
		return nil, fmt.Errorf("runtime: cannot shard an empty program")
	}
	if stages <= 0 {
		return nil, fmt.Errorf("runtime: stage count %d must be positive", stages)
	}
	if len(p.ExtraInputs) > 0 {
		return nil, fmt.Errorf("runtime: %s reads %d caller-staged buffer(s) besides its input, which a pipelined batch does not stage; the program cannot be cut here",
			p.PlannerName, len(p.ExtraInputs))
	}
	if stages > len(p.Ops) {
		stages = len(p.Ops)
	}
	weights := make([]float64, len(p.Ops))
	for i, op := range p.Ops {
		weights[i] = opWork(p, op)
	}
	sp := &ShardedProgram{Base: p}
	first := 0
	for _, last := range partition(weights, stages) {
		sp.Stages = append(sp.Stages, Stage{FirstOp: first, LastOp: last})
		first = last + 1
	}
	return sp, nil
}

// opWork counts one op's host work from its shapes alone: a convolution's or
// pooling layer's FLOPs, a fully-connected layer's two FLOPs per
// multiply-add, the input elements of any other layer op, and the elements a
// data-movement op moves (none for an alias).
func opWork(p *Program, op Op) float64 {
	if op.Kind == OpLayer {
		switch l := op.Layer.(type) {
		case *layers.Conv:
			return l.Cfg.FLOPs()
		case *layers.Pool:
			return l.Cfg.FLOPs()
		case *layers.FullyConnected:
			return 2 * float64(l.Batch) * float64(l.InDim) * float64(l.OutDim)
		}
	} else if p.Buffers[op.Out].AliasOf != NoBuffer {
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
