package autotune

import (
	"fmt"
	"math"
	"testing"

	"memcnn/internal/gpusim"
	"memcnn/internal/kernels"
)

func TestHillClimbFindsQuadraticMinimum(t *testing.T) {
	// Convex cost with minimum at (5, 3): the climb must land on it.
	cost := func(p []int) (float64, error) {
		return math.Pow(float64(p[0]-5), 2) + math.Pow(float64(p[1]-3), 2), nil
	}
	neighbours := func(p []int) [][]int {
		return [][]int{{p[0] + 1, p[1]}, {p[0] - 1, p[1]}, {p[0], p[1] + 1}, {p[0], p[1] - 1}}
	}
	res, err := HillClimb([]int{1, 1}, neighbours, cost, 50)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Point[0] != 5 || res.Best.Point[1] != 3 {
		t.Errorf("best point = %v, want [5 3]", res.Best.Point)
	}
	if res.Best.CostUS != 0 {
		t.Errorf("best cost = %v, want 0", res.Best.CostUS)
	}
	if res.Iterations == 0 || len(res.Evaluated) == 0 {
		t.Error("search trace must be recorded")
	}
}

func TestHillClimbStopsWhenNoImprovement(t *testing.T) {
	calls := 0
	cost := func(p []int) (float64, error) {
		calls++
		return 1, nil // flat landscape
	}
	neighbours := func(p []int) [][]int { return [][]int{{p[0] + 1}} }
	res, err := HillClimb([]int{1}, neighbours, cost, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 1 {
		t.Errorf("flat landscape should stop after one iteration, took %d", res.Iterations)
	}
	if calls > 3 {
		t.Errorf("flat landscape should need few evaluations, used %d", calls)
	}
}

func TestHillClimbInfeasibleNeighboursAreSkipped(t *testing.T) {
	cost := func(p []int) (float64, error) {
		if p[0] > 3 {
			return 0, fmt.Errorf("infeasible")
		}
		return float64(10 - p[0]), nil
	}
	neighbours := func(p []int) [][]int { return [][]int{{p[0] + 1}, {p[0] - 1}} }
	res, err := HillClimb([]int{1}, neighbours, cost, 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Point[0] != 3 {
		t.Errorf("best feasible point = %v, want [3]", res.Best.Point)
	}
}

func TestHillClimbErrors(t *testing.T) {
	if _, err := HillClimb(nil, nil, nil, 5); err == nil {
		t.Error("empty start must be rejected")
	}
	bad := func(p []int) (float64, error) { return 0, fmt.Errorf("nope") }
	if _, err := HillClimb([]int{1}, func(p []int) [][]int { return nil }, bad, 5); err == nil {
		t.Error("infeasible start must be rejected")
	}
}

func TestHillClimbDefaultIterationCap(t *testing.T) {
	cost := func(p []int) (float64, error) { return -float64(p[0]), nil } // unbounded improvement
	neighbours := func(p []int) [][]int { return [][]int{{p[0] + 1}} }
	res, err := HillClimb([]int{0}, neighbours, cost, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 16 {
		t.Errorf("default cap should be 16 iterations, got %d", res.Iterations)
	}
}

func TestTunePoolExpansionImprovesOverlappedPooling(t *testing.T) {
	d := gpusim.TitanBlack()
	cfg := kernels.PoolConfig{N: 128, C: 96, H: 55, W: 55, Window: 3, Stride: 2} // POOL5
	e, res, err := TunePoolExpansion(cfg, gpusim.PoolCoarsenedTimeUS(d, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if e.H < 1 || e.W < 1 {
		t.Fatalf("invalid expansion %+v", e)
	}
	base := gpusim.EstimateTime(d, gpusim.PoolCHWNCoarsenedCost(d, cfg, kernels.PoolExpansion{H: 1, W: 1})).TotalUS
	tuned := gpusim.EstimateTime(d, gpusim.PoolCHWNCoarsenedCost(d, cfg, e)).TotalUS
	if tuned > base {
		t.Errorf("tuned expansion %+v (%.0fus) should not lose to the untuned kernel (%.0fus)", e, tuned, base)
	}
	if e.H == 1 && e.W == 1 {
		t.Error("overlapped pooling should benefit from some coarsening")
	}
	if res.Best.CostUS != tuned {
		t.Errorf("result cost %.2f does not match re-evaluated cost %.2f", res.Best.CostUS, tuned)
	}
}

func TestTunePoolExpansionMatchesExhaustiveSearch(t *testing.T) {
	d := gpusim.TitanBlack()
	cfgs := []kernels.PoolConfig{
		{N: 128, C: 64, H: 24, W: 24, Window: 3, Stride: 2},
		{N: 128, C: 96, H: 55, W: 55, Window: 3, Stride: 2},
		{N: 128, C: 16, H: 28, W: 28, Window: 2, Stride: 2},
	}
	for _, cfg := range cfgs {
		tuned, res, err := TunePoolExpansion(cfg, gpusim.PoolCoarsenedTimeUS(d, cfg))
		if err != nil {
			t.Fatal(err)
		}
		_, bestCost, probes, err := ExhaustivePoolExpansion(cfg, gpusim.PoolCoarsenedTimeUS(d, cfg), 6)
		if err != nil {
			t.Fatal(err)
		}
		// The hill climb should get within 10% of the exhaustive optimum
		// while probing fewer points.
		if res.Best.CostUS > bestCost*1.10 {
			t.Errorf("%v: hill climb %+v %.1fus misses exhaustive optimum %.1fus by more than 10%%",
				cfg, tuned, res.Best.CostUS, bestCost)
		}
		if len(res.Evaluated) >= probes {
			t.Errorf("%v: hill climb evaluated %d points, exhaustive %d — pruning should help",
				cfg, len(res.Evaluated), probes)
		}
	}
}

func TestTunePoolExpansionValidation(t *testing.T) {
	d := gpusim.TitanBlack()
	if _, _, err := TunePoolExpansion(kernels.PoolConfig{}, gpusim.PoolCoarsenedTimeUS(d, kernels.PoolConfig{})); err == nil {
		t.Error("invalid pool config must be rejected")
	}
	if _, _, _, err := ExhaustivePoolExpansion(kernels.PoolConfig{}, gpusim.PoolCoarsenedTimeUS(d, kernels.PoolConfig{}), 4); err == nil {
		t.Error("invalid pool config must be rejected")
	}
}

func TestExhaustivePoolExpansionDefaultsMaxFactor(t *testing.T) {
	d := gpusim.TitanBlack()
	cfg := kernels.PoolConfig{N: 32, C: 16, H: 12, W: 12, Window: 3, Stride: 2}
	_, _, probes, err := ExhaustivePoolExpansion(cfg, gpusim.PoolCoarsenedTimeUS(d, cfg), 0)
	if err != nil {
		t.Fatal(err)
	}
	if probes == 0 {
		t.Error("exhaustive search must probe at least one point")
	}
}
