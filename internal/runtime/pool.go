package runtime

import (
	"fmt"
	"sync"

	"memcnn/internal/tensor"
)

// Instance is one executable copy of a program: a single arena allocation
// plus a tensor header per buffer viewing its arena slice.  Instances are
// built once and recycled through a Pool, so steady-state inference performs
// no tensor allocation.
type Instance struct {
	prog  *Program
	arena []float32
	bufs  []*tensor.Tensor
}

// newInstance allocates the arena and binds every buffer header to its
// planned offset.  Alias buffers view the same storage as their root.  The
// consistency conditions it depends on (alias reinterpretability, offsets
// inside the arena, shape/layout validity) are checked when the program is
// constructed — PlanMemory rejects a plan that cannot instantiate — so a bad
// plan surfaces as a compile error, not a crash in a serving worker; the
// errors here are a backstop for hand-built programs.
func newInstance(p *Program) (*Instance, error) {
	inst := &Instance{
		prog:  p,
		arena: make([]float32, p.Mem.ArenaElems),
		bufs:  make([]*tensor.Tensor, len(p.Buffers)),
	}
	for i, b := range p.Buffers {
		if b.AliasOf != NoBuffer {
			// A zero-copy view of its root's storage; roots always precede
			// their aliases, so the root header exists.
			root := inst.bufs[p.root(BufferID(i))]
			if root == nil {
				return nil, fmt.Errorf("runtime: alias buffer %d precedes its root", i)
			}
			view, ok := root.Reshape(b.Shape)
			if !ok {
				return nil, fmt.Errorf("runtime: buffer %d cannot reinterpret its root as %v", i, b.Shape)
			}
			inst.bufs[i] = view
			continue
		}
		off := p.Mem.Offsets[i]
		if off < 0 || off+b.Elems() > len(inst.arena) {
			return nil, fmt.Errorf("runtime: buffer %d [%d,%d) outside arena of %d elems",
				i, off, off+b.Elems(), len(inst.arena))
		}
		t, err := tensor.NewFrom(b.Shape, b.Layout, inst.arena[off:off+b.Elems()])
		if err != nil {
			return nil, fmt.Errorf("runtime: buffer %d: %w", i, err)
		}
		inst.bufs[i] = t
	}
	return inst, nil
}

// Pool recycles program instances across requests and workers.  Idle
// instances wait on a mutex-guarded free list: a Get finds one whenever any
// run has released one, so the pool holds exactly as many arenas as the peak
// number of concurrent runs, whatever the scheduler does.  (A sync.Pool gives
// neither half of that: an instance parked in one P's private slot is
// invisible to a Get on another P, which then builds one arena more, and the
// garbage collector drops idle instances, which a loaded server builds again.)
// The arenas are freed with the pool.
type Pool struct {
	prog *Program
	mu   sync.Mutex
	idle []*Instance
}

// NewPool builds an instance pool for a compiled program.
func NewPool(p *Program) *Pool { return &Pool{prog: p} }

// Get returns an instance, reusing a previously released one when available.
// The arena contents are unspecified; every program op fully overwrites its
// output buffer, so no clearing is needed.  An error means the program's
// memory plan cannot be instantiated — impossible for compiler-built
// programs, which are validated at construction.
func (pl *Pool) Get() (*Instance, error) {
	pl.mu.Lock()
	if n := len(pl.idle); n > 0 {
		inst := pl.idle[n-1]
		pl.idle[n-1] = nil
		pl.idle = pl.idle[:n-1]
		pl.mu.Unlock()
		return inst, nil
	}
	pl.mu.Unlock()
	return newInstance(pl.prog)
}

// Put releases an instance for reuse.
func (pl *Pool) Put(i *Instance) {
	if i != nil && i.prog == pl.prog {
		pl.mu.Lock()
		pl.idle = append(pl.idle, i)
		pl.mu.Unlock()
	}
}
