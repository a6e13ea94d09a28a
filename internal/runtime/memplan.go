package runtime

import (
	"fmt"
	"sort"
	"strings"

	"memcnn/internal/tensor"
)

// Interval is a buffer's live range in op indices: the buffer is written at
// Def (Def = -1 for the program input, written by the caller before the first
// op) and last read at LastUse (len(ops) for the program output, read by the
// caller after the last op).  Two buffers conflict when their intervals
// intersect.
type Interval struct {
	Def     int
	LastUse int
}

// overlaps reports whether two live ranges intersect.
func (a Interval) overlaps(b Interval) bool {
	return a.Def <= b.LastUse && b.Def <= a.LastUse
}

// MemPlan assigns every buffer of a program an offset into one shared arena
// such that no two simultaneously-live buffers overlap.  Alias buffers share
// their root's storage; their live ranges are merged into the root's.
type MemPlan struct {
	// Offsets holds the arena offset (in float32 elements) of every buffer,
	// indexed by BufferID.  An alias buffer has its root's offset.
	Offsets []int
	// Live holds the merged live range of every buffer's root, indexed by
	// BufferID.
	Live []Interval
	// ArenaElems is the arena size, in float32 elements.
	ArenaElems int
	// BoundElems is the liveness lower bound: the most root elements live at
	// any one op.  No placement fits in a smaller arena.
	BoundElems int
	// PeakOp is the first op at which BoundElems elements are live (-1 is the
	// input before the first op, len(ops) the output after the last), and
	// PeakBuffers the roots live there: why the arena is at least that big.
	PeakOp      int
	PeakBuffers []BufferID
}

// PeakBytes is the arena footprint: the paper's "memory efficiency" quantity
// at the whole-network scope.
func (m *MemPlan) PeakBytes() int64 { return int64(m.ArenaElems) * 4 }

// BoundBytes is the liveness lower bound in bytes.
func (m *MemPlan) BoundBytes() int64 { return int64(m.BoundElems) * 4 }

// placed records one buffer already assigned arena space.
type placed struct {
	off, elems int
	live       Interval
}

// PlanMemory computes buffer liveness over the program's op list and packs
// the root buffers into a single arena by best fit: each root goes into the
// free gap (among the offsets left by conflicting, already-placed roots) that
// wastes the least space.  Greedy placement depends on the order, so the
// roots are placed in three fixed orders — definition order, size
// descending, and size × lifetime descending — and the smallest arena is
// kept, the earliest order on a tie.  No arena can be smaller than the
// liveness lower bound, so the first order that meets it ends the search.
func PlanMemory(p *Program) (*MemPlan, error) {
	n := len(p.Buffers)
	if n == 0 {
		return nil, fmt.Errorf("runtime: program has no buffers")
	}

	// Liveness per root buffer.
	def := make([]int, n)
	last := make([]int, n)
	for i := range def {
		def[i] = len(p.Ops) + 1 // not yet defined
		last[i] = -2            // never read
	}
	touch := func(id BufferID, op int, write bool) {
		r := p.root(id)
		if write && op < def[r] {
			def[r] = op
		}
		last[r] = max(last[r], op)
	}
	touch(p.Input, -1, true)
	for _, id := range p.ExtraInputs {
		// Caller-staged side inputs (a training program's labels) are written
		// before the first op, like the main input.
		touch(id, -1, true)
	}
	for i, op := range p.Ops {
		touch(op.In, i, false)
		touch(op.Out, i, true)
		if op.Aux != NoBuffer {
			touch(op.Aux, i, false)
		}
		if op.Scratch != NoBuffer {
			// Workspace buffers are written and consumed inside their op, so
			// their live range is the single op index.
			touch(op.Scratch, i, true)
		}
	}
	touch(p.Output, len(p.Ops), false)

	roots := make([]BufferID, 0, n)
	live := make([]Interval, n)
	for id := range p.Buffers {
		r := p.root(BufferID(id))
		live[id] = Interval{Def: def[r], LastUse: last[r]}
		if BufferID(id) != r {
			continue
		}
		if def[id] > len(p.Ops) {
			return nil, fmt.Errorf("runtime: buffer %d (%v) is dead in the program", id, p.Buffers[id].Shape)
		}
		roots = append(roots, BufferID(id))
	}
	m := &MemPlan{Live: live}
	m.BoundElems, m.PeakOp, m.PeakBuffers = lowerBound(p, live, roots)

	elems := func(id BufferID) int { return p.Buffers[id].Elems() }
	byDef := append([]BufferID(nil), roots...)
	sort.SliceStable(byDef, func(i, j int) bool { return def[byDef[i]] < def[byDef[j]] })
	bySize := append([]BufferID(nil), byDef...)
	sort.SliceStable(bySize, func(i, j int) bool { return elems(bySize[i]) > elems(bySize[j]) })
	byArea := append([]BufferID(nil), byDef...)
	area := func(id BufferID) int { return elems(id) * (last[id] - def[id] + 1) }
	sort.SliceStable(byArea, func(i, j int) bool { return area(byArea[i]) > area(byArea[j]) })
	for _, order := range [][]BufferID{byDef, bySize, byArea} {
		if offsets, arena := placeRoots(p, live, order); m.Offsets == nil || arena < m.ArenaElems {
			m.Offsets, m.ArenaElems = offsets, arena
		}
		if m.ArenaElems == m.BoundElems {
			break
		}
	}
	// Aliases inherit their root's offset.
	for id := range p.Buffers {
		m.Offsets[id] = m.Offsets[p.root(BufferID(id))]
	}
	if err := m.validateInstantiable(p); err != nil {
		return nil, err
	}
	return m, nil
}

// placeRoots places the roots in the given order, each at the best-fit
// offset among the roots placed before it whose live ranges conflict with
// its own, and returns the offsets (indexed by BufferID, aliases left at 0)
// and the arena size.
func placeRoots(p *Program, live []Interval, order []BufferID) ([]int, int) {
	offsets := make([]int, len(p.Buffers))
	placements := make([]placed, 0, len(order))
	var conflicts []placed
	arena := 0
	for _, id := range order {
		size := p.Buffers[id].Elems()
		conflicts = conflicts[:0]
		for _, pl := range placements {
			if pl.live.overlaps(live[id]) {
				conflicts = append(conflicts, pl)
			}
		}
		offsets[id] = bestFit(conflicts, size)
		placements = append(placements, placed{off: offsets[id], elems: size, live: live[id]})
		arena = max(arena, offsets[id]+size)
	}
	return offsets, arena
}

// lowerBound sweeps the roots' live ranges once and returns the most root
// elements live at any one op, the first op where that many are, and the
// roots live there.
func lowerBound(p *Program, live []Interval, roots []BufferID) (bound, op int, at []BufferID) {
	delta := make([]int, len(p.Ops)+3) // index t+1 for op t in [-1, len(ops)+1]
	for _, id := range roots {
		delta[live[id].Def+1] += p.Buffers[id].Elems()
		delta[live[id].LastUse+2] -= p.Buffers[id].Elems()
	}
	op = -1
	for t, sum := 0, 0; t < len(delta); t++ {
		if sum += delta[t]; sum > bound {
			bound, op = sum, t-1
		}
	}
	for _, id := range roots {
		if live[id].Def <= op && op <= live[id].LastUse {
			at = append(at, id)
		}
	}
	return bound, op, at
}

// validateInstantiable checks that an executor instance can be bound over the
// plan without failing: every alias buffer is a pure reinterpretation of its
// root (tensor.Reshape would refuse otherwise), every root buffer has a
// valid shape and layout and lies inside the arena.  Running it at plan
// construction turns what used to be an arena-binding panic inside a serving
// worker into a returned compile error — a bad plan can be rejected, never
// take down a server.
func (m *MemPlan) validateInstantiable(p *Program) error {
	for i, b := range p.Buffers {
		if b.AliasOf != NoBuffer {
			r := p.root(BufferID(i))
			if r >= BufferID(i) {
				return fmt.Errorf("runtime: alias buffer %d does not follow its root %d", i, r)
			}
			root := p.Buffers[r]
			if !tensor.CanReinterpret(root.Shape, b.Shape, root.Layout) {
				return fmt.Errorf("runtime: alias buffer %d cannot reinterpret its root %d (%v as %v under %v)",
					i, r, root.Shape, b.Shape, root.Layout)
			}
			continue
		}
		if !b.Shape.Valid() || !b.Layout.Valid() {
			return fmt.Errorf("runtime: buffer %d has invalid shape %v or layout %v", i, b.Shape, b.Layout)
		}
		if off := m.Offsets[i]; off < 0 || off+b.Elems() > m.ArenaElems {
			return fmt.Errorf("runtime: buffer %d [%d,%d) outside arena of %d elems",
				i, off, off+b.Elems(), m.ArenaElems)
		}
	}
	return nil
}

// bestFit returns the offset for a buffer of the given size among conflicting
// placements: of all gaps that fit it, the one leaving the least slack; when
// only the open end of the arena fits, the lowest such offset.
func bestFit(conflicts []placed, size int) int {
	// candidate offsets: 0 and the end of every conflicting placement.
	cands := []int{0}
	for _, c := range conflicts {
		cands = append(cands, c.off+c.elems)
	}
	sort.Ints(cands)
	bestOff, bestSlack := -1, -1
	for _, off := range cands {
		// The gap above off runs to the lowest conflicting placement that
		// starts at or after off; a conflict covering off disqualifies it.
		gap := -1 // unbounded
		ok := true
		for _, c := range conflicts {
			if c.off <= off && off < c.off+c.elems {
				ok = false
				break
			}
			if c.off >= off {
				room := c.off - off
				if gap == -1 || room < gap {
					gap = room
				}
			}
		}
		if !ok || (gap != -1 && gap < size) {
			continue
		}
		slack := -1
		if gap != -1 {
			slack = gap - size
		}
		switch {
		case bestOff == -1:
			bestOff, bestSlack = off, slack
		case bestSlack == -1 && slack != -1:
			// A bounded gap beats growing the arena end.
			bestOff, bestSlack = off, slack
		case slack != -1 && slack < bestSlack:
			bestOff, bestSlack = off, slack
		case slack == -1 && bestSlack == -1 && off < bestOff:
			bestOff = off
		}
	}
	return bestOff
}

// NaiveBytes returns the footprint of keeping every root buffer live for the
// whole run — the sum the paper's memory optimisation is measured against.
func (p *Program) NaiveBytes() int64 {
	var total int64
	for _, b := range p.Buffers {
		if b.AliasOf == NoBuffer {
			total += b.Bytes()
		}
	}
	return total
}

// Savings returns how much of the naive footprint the arena eliminates, in
// [0, 1).
func (p *Program) Savings() float64 {
	naive := p.NaiveBytes()
	if naive == 0 {
		return 0
	}
	return 1 - float64(p.Mem.PeakBytes())/float64(naive)
}

// Validate checks the memory plan's central invariant: no two root buffers
// whose live ranges intersect overlap in the arena, and every buffer lies
// inside the arena.
//
// Rather than comparing all O(n²) buffer pairs, it sweeps the op timeline:
// each root enters the active set at Live.Def and leaves after Live.LastUse,
// and the active set is kept sorted by arena offset.  Because the extents
// already in the set are pairwise disjoint (or a violation would have been
// reported when the later one entered), a newcomer can only overlap its
// immediate offset-order neighbours, so each insertion is one binary search
// plus two boundary checks — O(n log n) overall, which keeps verifying
// VGG-scale training plans cheap enough to run on every compile.
func (m *MemPlan) Validate(p *Program) error {
	roots := make([]BufferID, 0, len(p.Buffers))
	for i := range p.Buffers {
		bi := p.Buffers[i]
		if m.Offsets[i] < 0 || m.Offsets[i]+bi.Elems() > m.ArenaElems {
			return fmt.Errorf("runtime: buffer %d [%d,%d) outside arena of %d elems",
				i, m.Offsets[i], m.Offsets[i]+bi.Elems(), m.ArenaElems)
		}
		if bi.AliasOf != NoBuffer {
			if m.Offsets[i] != m.Offsets[p.root(BufferID(i))] {
				return fmt.Errorf("runtime: alias buffer %d does not share its root's offset", i)
			}
			continue
		}
		roots = append(roots, BufferID(i))
	}

	// Timeline events: enter at Def, leave after LastUse.  At equal times
	// leaves precede enters — live ranges are inclusive on both ends, so a
	// buffer defined at t does conflict with one last read at t but not with
	// one last read at t-1.
	type event struct {
		t     int
		enter bool
		id    BufferID
	}
	events := make([]event, 0, 2*len(roots))
	for _, id := range roots {
		lv := m.Live[id]
		events = append(events, event{t: lv.Def, enter: true, id: id})
		events = append(events, event{t: lv.LastUse + 1, enter: false, id: id})
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].t != events[j].t {
			return events[i].t < events[j].t
		}
		return !events[i].enter && events[j].enter
	})

	type extent struct {
		off, end int
		id       BufferID
	}
	active := make([]extent, 0, len(roots))
	for _, ev := range events {
		off := m.Offsets[ev.id]
		k := sort.Search(len(active), func(i int) bool { return active[i].off >= off })
		if !ev.enter {
			for k < len(active) && active[k].id != ev.id {
				k++ // zero-sized extents can tie on offset
			}
			if k < len(active) {
				active = append(active[:k], active[k+1:]...)
			}
			continue
		}
		end := off + p.Buffers[ev.id].Elems()
		other := NoBuffer
		switch {
		case k > 0 && active[k-1].end > off:
			other = active[k-1].id
		case k < len(active) && end > active[k].off:
			other = active[k].id
		}
		if other != NoBuffer {
			i, j := ev.id, other
			if j < i {
				i, j = j, i
			}
			return fmt.Errorf("runtime: live buffers %d [%d,%d) and %d [%d,%d) overlap",
				i, m.Offsets[i], m.Offsets[i]+p.Buffers[i].Elems(),
				j, m.Offsets[j], m.Offsets[j]+p.Buffers[j].Elems())
		}
		active = append(active, extent{})
		copy(active[k+1:], active[k:])
		active[k] = extent{off: off, end: end, id: ev.id}
	}
	return nil
}

// String summarises the plan: its arena, its lower bound and where that is.
func (m *MemPlan) String() string {
	return fmt.Sprintf("arena %.4f MiB, bound %.4f MiB, peak at op %d (buffers %v)",
		float64(m.PeakBytes())/(1<<20), float64(m.BoundBytes())/(1<<20), m.PeakOp, strings.Trim(fmt.Sprint(m.PeakBuffers), "[]"))
}
