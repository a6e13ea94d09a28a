// Package autotune holds the two per-layer tuning decisions of the stack.
// The hill-climbing search (HillClimb, TunePoolExpansion) is the one the
// paper uses to pick the working-set expansion (thread coarsening) factors of
// the optimised pooling kernel (Section V.A): "With an initial factor of 2,
// the expansion factor continues to increase linearly if the performance
// improves.  Otherwise it stops as further expansion leads to high register
// pressure."  It minimises the profiler it is handed (the planner and the
// figure code hand it the GPU model's, gpusim.PoolCoarsenedTimeUS).  The
// host price list (Prices, prices.go) prices every layer's kernels in each
// layout, and the transforms between layouts, on the host that runs them,
// from measured rates; the compiler's selection pass chooses each layer's
// layout over it with CheapestChain (chain.go), the chain
// dynamic program that the paper's planner (internal/core) runs too, over
// modeled prices.
// Nothing in this package asks a GPU model anything.
package autotune

import (
	"fmt"

	"memcnn/internal/kernels"
)

// Candidate is one point of a discrete tuning space together with the cost
// the tuner is minimising (modelled execution time in microseconds).
type Candidate struct {
	Point  []int
	CostUS float64
}

// CostFunc evaluates one point of the tuning space.  Returning an error marks
// the point as infeasible.
type CostFunc func(point []int) (float64, error)

// Result summarises a tuning run.
type Result struct {
	Best       Candidate
	Evaluated  []Candidate // every point probed, in probe order
	Iterations int
}

// HillClimb minimises cost over an integer space starting from `start`.
// In each iteration it probes every neighbour produced by `neighbours` and
// moves to the best improving one; it stops when no neighbour improves or
// maxIterations is reached.  It is the generic engine behind the pooling
// tuner and is reusable for other kernel parameters.
func HillClimb(start []int, neighbours func(point []int) [][]int, cost CostFunc, maxIterations int) (Result, error) {
	if len(start) == 0 {
		return Result{}, fmt.Errorf("autotune: empty starting point")
	}
	if maxIterations <= 0 {
		maxIterations = 16
	}
	cur := append([]int(nil), start...)
	curCost, err := cost(cur)
	if err != nil {
		return Result{}, fmt.Errorf("autotune: starting point infeasible: %w", err)
	}
	res := Result{Best: Candidate{Point: append([]int(nil), cur...), CostUS: curCost}}
	res.Evaluated = append(res.Evaluated, res.Best)

	for iter := 0; iter < maxIterations; iter++ {
		res.Iterations = iter + 1
		improved := false
		bestNext := res.Best
		for _, nb := range neighbours(cur) {
			c, err := cost(nb)
			if err != nil {
				continue
			}
			cand := Candidate{Point: append([]int(nil), nb...), CostUS: c}
			res.Evaluated = append(res.Evaluated, cand)
			if c < bestNext.CostUS {
				bestNext = cand
				improved = true
			}
		}
		if !improved {
			break
		}
		cur = append([]int(nil), bestNext.Point...)
		res.Best = bestNext
	}
	return res, nil
}

// TunePoolExpansion searches the pooling working-set expansion factors for a
// layer, with timeUS — the time of the layer's kernel at one expansion — as
// the profiler.  It returns the chosen expansion and the full search trace.
func TunePoolExpansion(cfg kernels.PoolConfig, timeUS func(kernels.PoolExpansion) float64) (kernels.PoolExpansion, Result, error) {
	if err := cfg.Validate(); err != nil {
		return kernels.PoolExpansion{}, Result{}, err
	}
	cost := func(point []int) (float64, error) {
		e := kernels.PoolExpansion{H: point[0], W: point[1]}
		if e.H < 1 || e.W < 1 || e.H > cfg.OutH() || e.W > cfg.OutW() {
			return 0, fmt.Errorf("autotune: expansion %dx%d out of range", e.H, e.W)
		}
		return timeUS(e), nil
	}
	neighbours := func(p []int) [][]int {
		// Grow each dimension by one, the linear increase of the paper's
		// search; also allow shrinking so the climb can escape a bad start.
		return [][]int{
			{p[0] + 1, p[1]},
			{p[0], p[1] + 1},
			{p[0] + 1, p[1] + 1},
			{p[0] - 1, p[1]},
			{p[0], p[1] - 1},
		}
	}
	// The paper's search starts with an expansion factor of 2 and grows it
	// while the performance improves; the shrink neighbours let it settle
	// back to 1 when coarsening does not pay off (non-overlapped pooling).
	start := []int{2, 2}
	if cfg.OutH() < 2 {
		start[0] = 1
	}
	if cfg.OutW() < 2 {
		start[1] = 1
	}
	res, err := HillClimb(start, neighbours, cost, 12)
	if err != nil {
		return kernels.PoolExpansion{}, Result{}, err
	}
	return kernels.PoolExpansion{H: res.Best.Point[0], W: res.Best.Point[1]}, res, nil
}

// ExhaustivePoolExpansion scans the full (bounded) expansion space and
// returns the global optimum.  It is used by the ablation benchmark to check
// how close the hill-climbing pick gets while probing far fewer points.
func ExhaustivePoolExpansion(cfg kernels.PoolConfig, timeUS func(kernels.PoolExpansion) float64, maxFactor int) (kernels.PoolExpansion, float64, int, error) {
	if err := cfg.Validate(); err != nil {
		return kernels.PoolExpansion{}, 0, 0, err
	}
	if maxFactor <= 0 {
		maxFactor = 6
	}
	best := kernels.PoolExpansion{H: 1, W: 1}
	bestCost := timeUS(best)
	probes := 0
	for h := 1; h <= maxFactor && h <= cfg.OutH(); h++ {
		for w := 1; w <= maxFactor && w <= cfg.OutW(); w++ {
			probes++
			e := kernels.PoolExpansion{H: h, W: w}
			c := timeUS(e)
			if c < bestCost {
				best, bestCost = e, c
			}
		}
	}
	return best, bestCost, probes, nil
}
