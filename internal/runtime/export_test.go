package runtime

import "sort"

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
