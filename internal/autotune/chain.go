package autotune

import "math"

// CheapestChain is the one chain dynamic program of the stack: it chooses one
// of states[i] states for every layer i of a chain so that the sum of the
// prices along it is lowest.  price(i, a, s) prices layer i in its state s
// after state a of layer i-1 (a is -1 for the first layer): the layer's own
// price plus the step into it.  moved marks a step that takes layer i off the
// caller's starting list.  Of equally cheap chains (within a relative 1e-9,
// see Ties) the one with the fewest moved layers wins, and of those the one
// whose states come first, layer by layer from the input.  path[i] is the
// state layer i takes; through[i][s] is the price of the cheapest chain that
// puts layer i in state s, so through[i][s] - through[i][path[i]] is what
// taking s would cost, every other layer re-chosen around it.  Prices are in
// any one unit; every layer must have at least one state.
func CheapestChain(states []int, price func(i, a, s int) (price float64, moved bool)) (path []int, through [][]float64) {
	n := len(states)
	at := func(i, a, s int) chainPrice {
		p, moved := price(i, a, s)
		if moved {
			return chainPrice{p, 1}
		}
		return chainPrice{p, 0}
	}
	// fwd[i][s] is the cheapest chain through layers 0..i that ends in state
	// s, bwd[i][s] the cheapest rest of the chain after it.
	fwd, bwd := make([][]chainPrice, n), make([][]chainPrice, n)
	for i := range states {
		fwd[i] = make([]chainPrice, states[i])
		for s := range fwd[i] {
			if i == 0 {
				fwd[0][s] = at(0, -1, s)
				continue
			}
			_, fwd[i][s] = cheapest(states[i-1], func(a int) chainPrice { return fwd[i-1][a].plus(at(i, a, s)) })
		}
	}
	for i := n - 1; i >= 0; i-- {
		bwd[i] = make([]chainPrice, states[i])
		for a := range bwd[i] {
			if i < n-1 {
				_, bwd[i][a] = cheapest(states[i+1], func(s int) chainPrice { return at(i+1, a, s).plus(bwd[i+1][s]) })
			}
		}
	}
	// Walk the cheapest chain from the input: each layer takes the state that
	// prices the rest of the chain lowest after the one below it.
	path, through = make([]int, n), make([][]float64, n)
	prev := -1
	for i := range states {
		path[i], _ = cheapest(states[i], func(s int) chainPrice { return at(i, prev, s).plus(bwd[i][s]) })
		prev = path[i]
		through[i] = make([]float64, states[i])
		for s := range through[i] {
			through[i][s] = fwd[i][s].plus(bwd[i][s]).s
		}
	}
	return path, through
}

// chainPrice orders partial chains: price first, then the number of layers
// moved off the caller's starting list.
type chainPrice struct {
	s     float64
	moved int
}

func (a chainPrice) plus(b chainPrice) chainPrice { return chainPrice{a.s + b.s, a.moved + b.moved} }
func (a chainPrice) less(b chainPrice) bool {
	if Ties(a.s, b.s) {
		return a.moved < b.moved
	}
	return a.s < b.s
}

// Ties reports whether two finite prices differ by at most a relative 1e-9,
// as sums of the same terms in another order do: a transform priced the same
// before or after a ReLU, say.
func Ties(a, b float64) bool {
	return !math.IsInf(a, 0) && !math.IsInf(b, 0) && math.Abs(a-b) <= 1e-9*max(math.Abs(a), math.Abs(b))
}

// cheapest returns the state of n that price prices lowest, the first on a
// tie, and its price.
func cheapest(n int, price func(s int) chainPrice) (int, chainPrice) {
	arg, best := 0, chainPrice{s: math.Inf(1)}
	for s := 0; s < n; s++ {
		if p := price(s); p.less(best) {
			arg, best = s, p
		}
	}
	return arg, best
}
