package runtime

import (
	"context"
	"fmt"
	"sync/atomic"

	"memcnn/internal/tensor"
)

// Executor runs a compiled program on one device.  It is safe for concurrent
// use: each run borrows a private arena instance from the executor's pool,
// while the device (stateless for the CPU, a shared hardware model for
// simulated devices) is shared across runs.
type Executor struct {
	prog *Program
	dev  Device
	pool *Pool
	obs  atomic.Pointer[execObs]
}

// NewExecutor builds an executor (and its instance pool) for a program on the
// native CPU device.
func NewExecutor(p *Program) *Executor {
	return NewExecutorOn(p, CPUDevice{})
}

// NewExecutorOn builds an executor running every op of the program on the
// given device.
func NewExecutorOn(p *Program, dev Device) *Executor {
	return &Executor{prog: p, dev: dev, pool: NewPool(p)}
}

// Device returns the device the executor runs on.
func (e *Executor) Device() Device { return e.dev }

// Instrument attaches an observer to this executor: every subsequent run
// records one span per executed op (layer name, op kind, conv algorithm,
// input layout, modeled micros) plus a whole-run span on the given trace
// lane, and feeds the per-net run and per-op-kind latency histograms.  On a
// modeled device chain (SimOf != nil) layer ops additionally accumulate the
// measured/modeled drift counters.  Call before the executor serves traffic;
// a zero Observer detaches.
func (e *Executor) Instrument(ob Observer, lane int32) {
	if !ob.Enabled() {
		e.obs.Store(nil)
		return
	}
	e.obs.Store(newExecObs(e.prog, e.dev, ob, lane))
}

// Run executes the program on one input batch, returning a freshly allocated
// output in the input's layout.  Use RunInto to avoid the output allocation.
func (e *Executor) Run(in *tensor.Tensor) (*tensor.Tensor, error) {
	out := tensor.New(e.prog.OutputShape(), in.Layout)
	if err := e.RunInto(in, out); err != nil {
		return nil, err
	}
	return out, nil
}

// RunInto executes the program on one input batch, writing the result into
// dst (which must have the program's output shape; any layout).  The input is
// staged into the arena — converting layout if needed — the ops run over
// arena-backed views, and the final buffer is converted into dst.  No tensors
// or scratch slices are allocated along the way: activations, convolution
// GEMM workspaces and the fully-connected/softmax staging buffers all live in
// the arena, so the only steady-state heap traffic left is the short-lived
// goroutine fan-out inside the parallel kernels.
func (e *Executor) RunInto(in, dst *tensor.Tensor) error {
	return e.RunIntoCtx(context.Background(), in, dst)
}

// RunIntoCtx implements the context-aware Runner path: cancellation is
// checked between ops, so a cancelled or deadline-expired request abandons
// the remaining ops instead of running the program to completion.  dst is
// never partially delivered: on any error (including ctx.Err()) its contents
// are unchanged.
func (e *Executor) RunIntoCtx(ctx context.Context, in, dst *tensor.Tensor) error {
	_, err := e.runModeled(ctx, in, dst)
	return err
}

// runModeled is RunIntoCtx additionally returning the device's modeled
// execution time in microseconds (zero when the device does not model
// hardware, e.g. the CPU); pipeline stages report it.
func (e *Executor) runModeled(ctx context.Context, in, dst *tensor.Tensor) (float64, error) {
	if in.Shape != e.prog.InputShape() {
		return 0, fmt.Errorf("runtime: %s input shape %v, want %v", e.prog.Net.Name, in.Shape, e.prog.InputShape())
	}
	if dst.Shape != e.prog.OutputShape() {
		return 0, fmt.Errorf("runtime: %s output shape %v, want %v", e.prog.Net.Name, dst.Shape, e.prog.OutputShape())
	}
	inst, err := e.pool.Get()
	if err != nil {
		return 0, err
	}
	defer e.pool.Put(inst)
	return inst.run(ctx, e.dev, e.obs.Load(), in, dst)
}

// ExecuteOn executes the program's ops over an instance the caller bound
// (NewInstance) and staged itself.  The training executor runs its steps this
// way: it writes the batch and the labels into the instance's buffers, calls
// ExecuteOn and reads the loss off the still-resident probabilities.  The loop
// and its guarantees are RunIntoCtx's.
func (e *Executor) ExecuteOn(ctx context.Context, inst *Instance) (modeledUS float64, err error) {
	if inst.prog != e.prog {
		return 0, fmt.Errorf("runtime: instance belongs to another program")
	}
	return inst.run(ctx, e.dev, e.obs.Load(), nil, nil)
}

// run is the op interpreter — the one loop over a program's ops.  It stages
// in into the input buffer and delivers the output buffer into dst (either
// may be nil when the caller does that itself), and in between runs every op
// over the instance's bound buffers on dev, accumulating the device's modeled
// time.  A panic anywhere below — a buggy kernel, a faulting device — is
// contained into a *PanicError so it fails this run, never the process.
// Cancellation is checked before every op.  eo is nil when the executor is
// uninstrumented: the only observability cost on that path is the nil test
// per op.
func (inst *Instance) run(ctx context.Context, dev Device, eo *execObs, in, dst *tensor.Tensor) (modeledUS float64, err error) {
	defer containPanic("executor", &err)
	var runT0 int64
	if eo != nil {
		runT0 = eo.now()
	}
	if in != nil {
		if err := tensor.ConvertInto(in, inst.bufs[inst.prog.Input]); err != nil {
			return 0, fmt.Errorf("runtime: staging input: %w", err)
		}
	}
	done := ctx.Done()
	for i, op := range inst.prog.Ops {
		if done != nil {
			select {
			case <-done:
				return modeledUS, ctx.Err()
			default:
			}
		}
		if op.Kind == OpReshape && inst.prog.Buffers[op.Out].AliasOf != NoBuffer {
			// Zero-copy view: the output header already shares the input's
			// storage and linearisation.
			continue
		}
		var scratch []float32
		if op.Scratch != NoBuffer {
			scratch = inst.bufs[op.Scratch].Data
		}
		var aux *tensor.Tensor
		if op.Aux != NoBuffer {
			aux = inst.bufs[op.Aux]
		}
		var opT0 int64
		if eo != nil {
			opT0 = eo.now()
		}
		us, err := dev.RunOp(inst.prog, i, inst.bufs[op.In], inst.bufs[op.Out], aux, scratch)
		if err != nil {
			return modeledUS, fmt.Errorf("runtime: %w", err)
		}
		if eo != nil {
			eo.observeOp(i, opT0, us)
		}
		modeledUS += us
	}
	if dst != nil {
		if err := tensor.ConvertInto(inst.bufs[inst.prog.Output], dst); err != nil {
			return modeledUS, fmt.Errorf("runtime: delivering output: %w", err)
		}
	}
	if eo != nil {
		eo.observeRun(runT0, modeledUS)
	}
	return modeledUS, nil
}
