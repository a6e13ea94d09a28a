package runtime

import (
	"sort"

	"memcnn/internal/autotune"
	"memcnn/internal/network"
)

// CompileOutOfPlace is Compile with in-place execution off: every layer's
// output gets storage of its own, the baseline the in-place arena is
// measured against.
func CompileOutOfPlace(net *network.Network, name string, choices []Choice, opts Options) (*Program, error) {
	return compile(net, name, choices, opts, false)
}

// SelectWith runs the selection pass over the price list prices instead of
// the host's, a training step's chain with step, returning the choices and
// the decision record.
func SelectWith(net *network.Network, choices []Choice, prices autotune.Prices, step bool) ([]Choice, []Decision) {
	return selectChoices(net, choices, prices, step, nil)
}

// DefinitionOrderArena places p's roots in definition order, the first of
// PlanMemory's three orders, and returns that arena's size in elements: the
// size PlanMemory must never exceed.
func DefinitionOrderArena(p *Program) int {
	var roots []BufferID
	for id := range p.Buffers {
		if p.Buffers[id].AliasOf == NoBuffer {
			roots = append(roots, BufferID(id))
		}
	}
	sort.SliceStable(roots, func(i, j int) bool { return p.Mem.Live[roots[i]].Def < p.Mem.Live[roots[j]].Def })
	_, arena := placeRoots(p, p.Mem.Live, roots)
	return arena
}

// ServerBuckets returns the programs s runs coalesced batches on, smallest
// first.
func ServerBuckets(s *BatchServer) []*Program { return s.buckets }

// WorkerArenas returns, per worker of s, the length of its one arena and how
// many root buffers of its bucket instances are stored anywhere else.
func WorkerArenas(s *BatchServer) (elems, outside []int) {
	for _, w := range s.workers {
		n := 0
		for _, inst := range w.insts {
			for id, b := range inst.prog.Buffers {
				if b.AliasOf != NoBuffer {
					continue
				}
				// A sub-slice of the arena extends, at its capacity, to the
				// arena's last element.
				d := inst.bufs[id].Data
				if len(w.arena) == 0 || &d[:cap(d)][cap(d)-1] != &w.arena[len(w.arena)-1] {
					n++
				}
			}
		}
		elems, outside = append(elems, len(w.arena)), append(outside, n)
	}
	return elems, outside
}

// QueueDepth is the number of requests waiting in s's queue.
func QueueDepth(s *BatchServer) int { return len(s.reqs) }

// FullBatchP95US is the p95 time of the batches s ran on its last bucket,
// the figure admission control prices a queued batch at.
func FullBatchP95US(s *BatchServer) float64 { return s.fullLat.Quantile(0.95) }
