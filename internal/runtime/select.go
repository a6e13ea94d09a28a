package runtime

import (
	"fmt"
	"math"

	"memcnn/internal/autotune"
	"memcnn/internal/network"
	"memcnn/internal/tensor"
)

// Candidate is one layout the selection priced for a layer, with the layer's
// own host price in seconds (the transforms around it are the chain's, not
// the candidate's).
type Candidate struct {
	Layout  tensor.Layout
	Seconds float64
}

// Decision records why one layer got its layout: every candidate the host
// price list prices for it, the winner, and what the next best would cost.
type Decision struct {
	Layer      string
	Candidates []Candidate
	Chosen     tensor.Layout
	// RunnerUp is the best other candidate and Margin how many seconds the
	// whole chain's price rises by if the layer takes it, every other layer
	// re-chosen around it.  A margin that ties is one the caller's layout
	// won; a layer with one candidate has no runner-up and an infinite margin.
	RunnerUp tensor.Layout
	Margin   float64
	// Reason says the same in words: which of the margin is the layer's own
	// price and which the rest of the chain's (its transforms and neighbours).
	Reason string
}

// SelectChoices is the one place a layer's layout is chosen.  It is an exact
// dynamic program over the layer chain (autotune.CheapestChain, the one the
// paper's planner runs too): a layer's state is a layout the host price list
// (autotune.HostPrices) prices, the node cost is that price, and the edge cost
// between two layers is the tensor.ConvertInto the lowering puts between
// different layouts, free between equal ones.  The staging of the program's
// input and output is not an edge: the executor copies both through
// tensor.ConvertInto whatever the program's layouts.  No gpusim device is
// asked: a modeled GPU time says nothing about a Go kernel.  The chain's
// cheapest assignment wins; of equally cheap ones (within a relative 1e-9, see
// autotune.Ties), the one that keeps the most layers in the caller's layout, so
// the caller's layouts (an execution plan's, say) are the tie-break.
// layouts narrows the layouts a layer may take; none means both.  With step the chain is priced as a training step: a node
// is the layer's forward and gradients (autotune.Prices.Step), and an edge is
// paid twice, by the activation going up and by its gradient coming back.
// Compile runs this pass under Options.ConvAlgorithms and keeps its decision
// record (Program.Decisions).
func SelectChoices(net *network.Network, choices []tensor.Layout, step bool, layouts ...tensor.Layout) []tensor.Layout {
	selected, _ := selectChoices(net, choices, hostPrices, step, layouts)
	return selected
}

// hostPrices is the price list every selection runs over.
var hostPrices = autotune.HostPrices()

// selectChoices is SelectChoices over the price list prices, returning the
// decision record too.
func selectChoices(net *network.Network, choices []tensor.Layout, prices autotune.Prices, step bool, layouts []tensor.Layout) ([]tensor.Layout, []Decision) {
	if len(layouts) == 0 {
		layouts = tensor.Layouts
	}
	price, edges := prices.Layer, 1.0
	if step {
		price, edges = prices.Step, 2
	}
	n := len(net.Layers)
	// cands[i] are layer i's states.
	cands, states := make([][]Candidate, n), make([]int, n)
	for i, l := range net.Layers {
		for _, lay := range layouts {
			if s, ok := price(l, lay); ok {
				cands[i] = append(cands[i], Candidate{lay, s})
			}
		}
		if len(cands[i]) == 0 { // nothing priced: keep the caller's layout
			cands[i] = []Candidate{{Layout: choices[i]}}
		}
		states[i] = len(cands[i])
	}
	// A step into layer i pays for the layer and for the transform the
	// lowering puts before it, from the layout of the layer below (and, in a
	// training step, for the gradient's transform back).
	state, through := autotune.CheapestChain(states, func(i, a, s int) (float64, bool) {
		c := cands[i][s]
		p := c.Seconds
		if a >= 0 {
			p += edges * prices.Convert(net.Layers[i-1].OutputShape(), cands[i-1][a].Layout, c.Layout)
		}
		return p, c.Layout != choices[i]
	})

	selected := make([]tensor.Layout, n)
	decisions := make([]Decision, n)
	for i, l := range net.Layers {
		win := state[i]
		d := Decision{Layer: l.Name(), Candidates: cands[i], Chosen: cands[i][win].Layout, Margin: math.Inf(1)}
		runner := -1
		for s := range cands[i] {
			if s == win {
				continue
			}
			if alt := through[i][s] - through[i][win]; runner < 0 || alt < d.Margin {
				runner, d.Margin = s, alt
			}
		}
		switch {
		case runner < 0:
			d.Reason = "the only candidate"
		case autotune.Ties(through[i][win]+d.Margin, through[i][win]):
			d.RunnerUp = cands[i][runner].Layout
			d.Reason = fmt.Sprintf("ties %v, and keeps the caller's layout", d.RunnerUp)
		default:
			d.RunnerUp = cands[i][runner].Layout
			own := cands[i][runner].Seconds - cands[i][win].Seconds
			d.Reason = fmt.Sprintf("beats %v by %.1f us: its own price is %s, the rest of the chain %s",
				d.RunnerUp, d.Margin*1e6, saving(own), saving(d.Margin-own))
		}
		selected[i], decisions[i] = d.Chosen, d
	}
	return selected, decisions
}

// saving words a saving of s seconds, or a cost when it is negative.
func saving(s float64) string {
	if s < 0 {
		return fmt.Sprintf("%.1f us higher", -s*1e6)
	}
	return fmt.Sprintf("%.1f us lower", s*1e6)
}
