package autotune

import (
	"math"
	"math/rand"
	"testing"
)

// randomChain is a chain of n layers with 2–3 states each: price(i, a, s) is
// a node price plus, past the first layer, an edge price, and moved a coin
// flip per (i, a, s).  With integral prices exact ties are common.
type randomChain struct {
	states []int
	node   [][]float64
	edge   [][][]float64
	moved  [][][]bool
}

func newRandomChain(rng *rand.Rand, n int, integral bool) randomChain {
	draw := func() float64 {
		if integral {
			return float64(rng.Intn(4))
		}
		return rng.Float64() * 10
	}
	c := randomChain{states: make([]int, n), node: make([][]float64, n), edge: make([][][]float64, n), moved: make([][][]bool, n)}
	for i := range c.states {
		c.states[i] = 2 + rng.Intn(2)
		for s := 0; s < c.states[i]; s++ {
			c.node[i] = append(c.node[i], draw())
		}
		from := 1 // the first layer's steps come from a = -1
		if i > 0 {
			from = c.states[i-1]
		}
		c.edge[i], c.moved[i] = make([][]float64, from), make([][]bool, from)
		for a := 0; a < from; a++ {
			for s := 0; s < c.states[i]; s++ {
				e := 0.0
				if i > 0 {
					e = draw()
				}
				c.edge[i][a] = append(c.edge[i][a], e)
				c.moved[i][a] = append(c.moved[i][a], rng.Intn(3) == 0)
			}
		}
	}
	return c
}

func (c randomChain) price(i, a, s int) (float64, bool) {
	if a < 0 {
		a = 0
	}
	return c.node[i][s] + c.edge[i][a][s], c.moved[i][a][s]
}

// total prices a whole path the way the chain sums it, from the input.
func (c randomChain) total(path []int) (float64, int) {
	sum, moved, prev := 0.0, 0, -1
	for i, s := range path {
		p, m := c.price(i, prev, s)
		sum += p
		if m {
			moved++
		}
		prev = s
	}
	return sum, moved
}

// every calls visit with each path of the chain.
func (c randomChain) every(visit func(path []int)) {
	path := make([]int, len(c.states))
	var walk func(i int)
	walk = func(i int) {
		if i == len(path) {
			visit(path)
			return
		}
		for s := 0; s < c.states[i]; s++ {
			path[i] = s
			walk(i + 1)
		}
	}
	walk(0)
}

// TestCheapestChainIsExhaustiveOptimum checks the chain program against
// enumeration of every path on random chains: the path it returns prices at
// the minimum, moves no more layers than any other path at that price, and
// through[i][s] is the cheapest price of the paths through state s of layer
// i.
func TestCheapestChainIsExhaustiveOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		integral := trial%2 == 0
		c := newRandomChain(rng, 1+rng.Intn(8), integral)
		path, through := CheapestChain(c.states, c.price)

		best, bestMoved := math.Inf(1), 0
		want := make([][]float64, len(c.states))
		for i := range want {
			want[i] = make([]float64, c.states[i])
			for s := range want[i] {
				want[i][s] = math.Inf(1)
			}
		}
		c.every(func(p []int) {
			sum, moved := c.total(p)
			if !Ties(sum, best) && sum < best || Ties(sum, best) && moved < bestMoved {
				best, bestMoved = sum, moved
			}
			for i, s := range p {
				want[i][s] = min(want[i][s], sum)
			}
		})
		got, gotMoved := c.total(path)
		if !Ties(got, best) || gotMoved != bestMoved {
			t.Fatalf("trial %d (%d layers): path %v prices %v moving %d layers, the cheapest path %v moving %d",
				trial, len(path), path, got, gotMoved, best, bestMoved)
		}
		for i := range want {
			for s := range want[i] {
				if !Ties(through[i][s], want[i][s]) {
					t.Fatalf("trial %d: through[%d][%d] = %v, the cheapest path through it %v", trial, i, s, through[i][s], want[i][s])
				}
			}
		}
	}
}

// TestCheapestChainBreaksTiesByMovedThenOrder: of two equally cheap paths the
// one that moves fewer layers wins even when it comes later, and of paths
// that also move as many layers, the first.
func TestCheapestChainBreaksTiesByMovedThenOrder(t *testing.T) {
	flat := func(i, a, s int) (float64, bool) { return 1, false }
	if path, _ := CheapestChain([]int{2, 2, 2}, flat); path[0] != 0 || path[1] != 0 || path[2] != 0 {
		t.Errorf("on a flat chain the path is %v, want the first states [0 0 0]", path)
	}
	// State 0 is moved everywhere but in layer 1, which only state 1 leaves
	// unmoved; a price difference below the tie tolerance does not count.
	moved := func(i, a, s int) (float64, bool) { return 1 + float64(s)*1e-12, s == 0 }
	if path, _ := CheapestChain([]int{2, 2, 2}, moved); path[0] != 1 || path[1] != 1 || path[2] != 1 {
		t.Errorf("on a tie the path is %v, want the unmoved states [1 1 1]", path)
	}
	// A real saving beats moving a layer.
	cheaper := func(i, a, s int) (float64, bool) { return 1 - float64(s)*1e-3, s == 1 }
	if path, _ := CheapestChain([]int{2, 2}, cheaper); path[0] != 1 || path[1] != 1 {
		t.Errorf("the cheaper path is %v, want [1 1]", path)
	}
}
