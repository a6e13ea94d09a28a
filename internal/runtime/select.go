package runtime

import (
	"fmt"
	"math"

	"memcnn/internal/autotune"
	"memcnn/internal/kernels"
	"memcnn/internal/layers"
	"memcnn/internal/network"
	"memcnn/internal/tensor"
)

// Candidate is one (layout, algorithm) the selection priced for a layer, with
// the layer's own host price in seconds (the transforms around it are the
// chain's, not the candidate's).
type Candidate struct {
	Choice
	Seconds float64
}

// Decision records why one layer got its Choice: every candidate the host
// price list prices for it, the winner, and what the next best would cost.
type Decision struct {
	Layer      string
	Candidates []Candidate
	Chosen     Choice
	// RunnerUp is the best other candidate and Margin how many seconds the
	// whole chain's price rises by if the layer takes it, every other layer
	// re-chosen around it.  A margin that ties is one the caller's layout
	// won; a layer with one candidate has no runner-up and an infinite margin.
	RunnerUp Choice
	Margin   float64
	// Reason says the same in words: which of the margin is the layer's own
	// price and which the rest of the chain's (its transforms and neighbours).
	Reason string
}

// SelectChoices is the one place a layer's layout and a convolution's
// algorithm are chosen.  It is an exact dynamic program over the layer chain:
// a layer's state is a (layout, algorithm) it supports and the host price
// list (autotune.HostPrices) prices, the node cost is that price, and the edge
// cost between two layers is the tensor.ConvertInto the lowering puts between
// different layouts, free between equal ones.  The staging of the program's
// input and output is not an edge: the executor copies both through
// tensor.ConvertInto whatever the program's layouts.  No gpusim device is
// asked: a modeled GPU time says nothing about a Go kernel.  The chain's
// cheapest assignment wins; of equally cheap ones (within a relative 1e-9,
// see ties), the one that keeps the most layers in the caller's layout, so
// the caller's layouts (an execution plan's, say) are the tie-break.
// layouts narrows the layouts a layer may take; none means every layout the
// layer supports.  With step the chain is priced as a training step: a node
// is the layer's forward and gradients (autotune.Prices.Step), and an edge is
// paid twice, by the activation going up and by its gradient coming back.
// Compile runs this pass under Options.ConvAlgorithms and keeps its decision
// record (Program.Decisions).
func SelectChoices(net *network.Network, choices []Choice, step bool, layouts ...tensor.Layout) []Choice {
	selected, _ := selectChoices(net, choices, hostPrices, step, layouts)
	return selected
}

// hostPrices is the price list every selection runs over.
var hostPrices = autotune.HostPrices()

// chainPrice orders partial assignments: seconds first, then the number of
// layers moved off the caller's layout.
type chainPrice struct {
	s     float64
	moved int
}

func (a chainPrice) plus(b chainPrice) chainPrice { return chainPrice{a.s + b.s, a.moved + b.moved} }
func (a chainPrice) less(b chainPrice) bool {
	if ties(a.s, b.s) {
		return a.moved < b.moved
	}
	return a.s < b.s
}

// ties reports whether two finite prices differ by at most a relative 1e-9,
// as sums of the same terms in another order do: a transform priced the same
// before or after a ReLU, say.
func ties(a, b float64) bool {
	return !math.IsInf(a, 0) && !math.IsInf(b, 0) && math.Abs(a-b) <= 1e-9*max(math.Abs(a), math.Abs(b))
}

// selectChoices is SelectChoices over the price list prices, returning the
// decision record too.
func selectChoices(net *network.Network, choices []Choice, prices autotune.Prices, step bool, layouts []tensor.Layout) ([]Choice, []Decision) {
	if len(layouts) == 0 {
		layouts = tensor.Layouts
	}
	price, edges := prices.Layer, 1.0
	if step {
		price, edges = prices.Step, 2
	}
	n := len(net.Layers)
	// cands[i] are layer i's states; node[i][s] their prices.
	cands := make([][]Candidate, n)
	node := make([][]chainPrice, n)
	for i, l := range net.Layers {
		algs := []kernels.ConvAlgorithm{kernels.ConvAlgDirect}
		if _, ok := l.(*layers.Conv); ok {
			algs = append(algs, kernels.ConvAlgGemm)
		}
		for _, lay := range layouts {
			for _, alg := range algs {
				if s, ok := price(l, lay, alg); ok {
					cands[i] = append(cands[i], Candidate{Choice{lay, alg}, s})
				}
			}
		}
		if len(cands[i]) == 0 { // nothing priced: keep the caller's choice
			cands[i] = []Candidate{{Choice: choices[i]}}
		}
		for _, c := range cands[i] {
			p := chainPrice{s: c.Seconds}
			if c.Layout != choices[i].Layout {
				p.moved = 1
			}
			node[i] = append(node[i], p)
		}
	}
	// edge prices the transform the lowering puts before layer i, from layout
	// a of the layer below into layout b (and, in a step, the gradient's back).
	edge := func(i int, a, b tensor.Layout) chainPrice {
		return chainPrice{s: edges * prices.Convert(net.Layers[i-1].OutputShape(), a, b)}
	}
	// fwd[i][s] is the cheapest chain through layers 0..i that ends in state
	// s, bwd[i][s] the cheapest rest of the chain after it.
	fwd, bwd := make([][]chainPrice, n), make([][]chainPrice, n)
	for i := range cands {
		fwd[i] = append([]chainPrice(nil), node[i]...)
		for s, c := range cands[i] {
			if i > 0 {
				_, in := cheapest(len(cands[i-1]), func(a int) chainPrice {
					return fwd[i-1][a].plus(edge(i, cands[i-1][a].Layout, c.Layout))
				})
				fwd[i][s] = in.plus(node[i][s])
			}
		}
	}
	for i := n - 1; i >= 0; i-- {
		bwd[i] = make([]chainPrice, len(cands[i]))
		for s, c := range cands[i] {
			if i < n-1 {
				_, bwd[i][s] = cheapest(len(cands[i+1]), func(b int) chainPrice {
					return edge(i+1, c.Layout, cands[i+1][b].Layout).plus(node[i+1][b]).plus(bwd[i+1][b])
				})
			}
		}
	}
	// Walk the cheapest chain from the input: each layer takes the state that
	// prices the rest of the chain lowest after the one below it.
	state := make([]int, n)
	for i := range cands {
		state[i], _ = cheapest(len(cands[i]), func(s int) chainPrice {
			if i == 0 {
				return node[0][s].plus(bwd[0][s])
			}
			return edge(i, cands[i-1][state[i-1]].Layout, cands[i][s].Layout).plus(node[i][s]).plus(bwd[i][s])
		})
	}

	selected := make([]Choice, n)
	decisions := make([]Decision, n)
	for i, l := range net.Layers {
		win := state[i]
		d := Decision{Layer: l.Name(), Candidates: cands[i], Chosen: cands[i][win].Choice, Margin: math.Inf(1)}
		through := fwd[i][win].plus(bwd[i][win]).s
		runner := -1
		for s := range cands[i] {
			if s == win {
				continue
			}
			if alt := fwd[i][s].plus(bwd[i][s]).s - through; runner < 0 || alt < d.Margin {
				runner, d.Margin = s, alt
			}
		}
		switch {
		case runner < 0:
			d.Reason = "the only candidate"
		case ties(through+d.Margin, through):
			d.RunnerUp = cands[i][runner].Choice
			d.Reason = fmt.Sprintf("ties %v, and keeps the caller's layout", d.RunnerUp)
		default:
			d.RunnerUp = cands[i][runner].Choice
			own := cands[i][runner].Seconds - cands[i][win].Seconds
			d.Reason = fmt.Sprintf("beats %v by %.1f us: its own price is %s, the rest of the chain %s",
				d.RunnerUp, d.Margin*1e6, saving(own), saving(d.Margin-own))
		}
		selected[i], decisions[i] = d.Chosen, d
	}
	return selected, decisions
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

// saving words a saving of s seconds, or a cost when it is negative.
func saving(s float64) string {
	if s < 0 {
		return fmt.Sprintf("%.1f us higher", -s*1e6)
	}
	return fmt.Sprintf("%.1f us lower", s*1e6)
}

// String names a choice as layout/algorithm.
func (c Choice) String() string { return fmt.Sprintf("%v/%v", c.Layout, c.Alg) }
