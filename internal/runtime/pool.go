package runtime

import (
	"fmt"
	"sync"

	"memcnn/internal/tensor"
)

// Instance is one executable copy of a program: a tensor header per buffer,
// bound to storage.  Pooled instances pack every buffer into a single arena
// allocation at its planned offset and are recycled, so steady-state
// inference performs no tensor allocation.
type Instance struct {
	prog *Program
	bufs []*tensor.Tensor
}

// NewInstance binds every buffer header of a program to storage.  With
// perBuffer false the buffers share one arena allocation at the memory plan's
// offsets (Mem.PeakBytes of storage); with perBuffer true every root buffer
// gets an allocation of its own (Program.NaiveBytes), the keep-everything
// baseline planned footprints are measured against.
func NewInstance(p *Program, perBuffer bool) (*Instance, error) {
	if perBuffer {
		return bindInstance(p, nil)
	}
	return bindInstance(p, make([]float32, p.Mem.ArenaElems))
}

// bindInstance is the one place buffers are bound: into arena at the plan's
// offsets, or each root into an allocation of its own when arena is nil.
// Alias buffers view their root's storage either way.  The arena may be longer
// than the plan: a batching worker binds one instance per bucket into one.
//
// PlanMemory already rejects a plan that cannot bind (alias
// reinterpretability, offsets inside the arena, shape/layout validity), so
// the errors here are a backstop for hand-built programs.
func bindInstance(p *Program, arena []float32) (*Instance, error) {
	inst := &Instance{prog: p, bufs: make([]*tensor.Tensor, len(p.Buffers))}
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
		var backing []float32
		if arena == nil {
			backing = make([]float32, b.Elems())
		} else {
			off := p.Mem.Offsets[i]
			if off < 0 || off+b.Elems() > len(arena) {
				return nil, fmt.Errorf("runtime: buffer %d [%d,%d) outside arena of %d elems",
					i, off, off+b.Elems(), len(arena))
			}
			backing = arena[off : off+b.Elems()]
		}
		t, err := tensor.NewFrom(b.Shape, b.Layout, backing)
		if err != nil {
			return nil, fmt.Errorf("runtime: buffer %d: %w", i, err)
		}
		inst.bufs[i] = t
	}
	return inst, nil
}

// Buffer returns the tensor bound to one of the program's buffers, for a
// caller that stages inputs and reads results itself (see Executor.ExecuteOn).
func (inst *Instance) Buffer(id BufferID) *tensor.Tensor { return inst.bufs[id] }

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
	return NewInstance(pl.prog, false)
}

// Put releases an instance for reuse.
func (pl *Pool) Put(i *Instance) {
	if i != nil && i.prog == pl.prog {
		pl.mu.Lock()
		pl.idle = append(pl.idle, i)
		pl.mu.Unlock()
	}
}
