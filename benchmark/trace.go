package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	memruntime "memcnn/internal/runtime"
	"memcnn/internal/tensor"
)

// Span categories.  A run, step or batch is the root of the ops it executes;
// a request is what a serving client waits for.
const (
	catRun     = "run"
	catStep    = "step"
	catBatch   = "batch"
	catRequest = "request"
	catOp      = "op"
)

// span is one interval recorded at a public boundary of the system under
// test, from the benchmark's side of that boundary.
type span struct {
	ID     int64
	Parent int64 // 0 for a root
	// Req is the run, step or request the span belongs to.  A served batch
	// carries 0: it answers several requests and the server does not say
	// which.
	Req   int64
	Cat   string
	Name  string
	Lane  int
	Start time.Duration // since the tracer's epoch
	Dur   time.Duration
	opInfo
}

// tracer keeps spans in memory until the benchmark writes them out.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin reserves a span id and reads the clock.
func (t *tracer) begin() (id int64, start time.Duration) {
	return t.ids.Add(1), time.Since(t.epoch)
}

// end stamps the span's duration and stores it.
func (t *tracer) end(s span) {
	s.Dur = time.Since(t.epoch) - s.Start
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// tracedDevice is the runtime.Device the traced run hands to NewExecutorOn and
// train.NewExecutorOn: the CPU device plus one span per RunOp.  The executor
// that owns the device runs its ops on the calling goroutine, so whoever calls
// into that executor names the span the ops belong to with under().
type tracedDevice struct {
	memruntime.CPUDevice
	tr   *tracer
	lane int
	ops  []opInfo // of the one program the device's executor runs

	parent, req atomic.Int64
}

func newTracedDevice(tr *tracer, lane int, prog *memruntime.Program) *tracedDevice {
	d := &tracedDevice{tr: tr, lane: lane, ops: make([]opInfo, len(prog.Ops))}
	for i, op := range prog.Ops {
		d.ops[i] = describeOp(prog, op)
	}
	return d
}

// under makes the following ops children of the given span.
func (d *tracedDevice) under(parent, req int64) {
	d.parent.Store(parent)
	d.req.Store(req)
}

// RunOp implements runtime.Device.
func (d *tracedDevice) RunOp(prog *memruntime.Program, i int, in, out, aux *tensor.Tensor, scratch []float32) (float64, error) {
	id, start := d.tr.begin()
	us, err := d.CPUDevice.RunOp(prog, i, in, out, aux, scratch)
	d.tr.end(span{
		ID: id, Parent: d.parent.Load(), Req: d.req.Load(),
		Cat: catOp, Name: d.ops[i].name, Lane: d.lane, Start: start, opInfo: d.ops[i],
	})
	return us, err
}

// tracedRunner is the runtime.Runner the traced run hands to NewServerWith: one
// span per served batch, with the batch's ops beneath it.  Each concurrent
// batch takes one slot — an executor over its own traced device — so that op
// spans find their batch without knowing which goroutine ran them.
type tracedRunner struct {
	tr    *tracer
	slots chan *runnerSlot
}

type runnerSlot struct {
	exec *memruntime.Executor
	dev  *tracedDevice
}

func newTracedRunner(tr *tracer, prog *memruntime.Program, workers int) *tracedRunner {
	r := &tracedRunner{tr: tr, slots: make(chan *runnerSlot, workers)}
	for i := 0; i < workers; i++ {
		dev := newTracedDevice(tr, 1+i, prog)
		r.slots <- &runnerSlot{exec: memruntime.NewExecutorOn(prog, dev), dev: dev}
	}
	return r
}

// RunInto implements runtime.Runner.
func (r *tracedRunner) RunInto(in, dst *tensor.Tensor) error {
	return r.RunIntoCtx(context.Background(), in, dst)
}

// RunIntoCtx implements runtime.Runner.
func (r *tracedRunner) RunIntoCtx(ctx context.Context, in, dst *tensor.Tensor) error {
	var slot *runnerSlot
	select {
	case slot = <-r.slots:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { r.slots <- slot }()
	id, start := r.tr.begin()
	slot.dev.under(id, 0)
	err := slot.exec.RunIntoCtx(ctx, in, dst)
	r.tr.end(span{ID: id, Cat: catBatch, Name: "batch", Lane: slot.dev.lane, Start: start})
	return err
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its direct children cover.  Children may overlap each other
// and may stick out of the parent; only the covered part of the parent counts.
func selfTimes(spans []span) map[int64]time.Duration {
	type interval struct{ lo, hi time.Duration }
	children := make(map[int64][]interval)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.Start + s.Dur})
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].lo < kids[j].lo })
		lo, hi := s.Start, s.Start+s.Dur
		var covered time.Duration
		at := lo // everything before at is accounted for
		for _, k := range kids {
			if k.lo < at {
				k.lo = at
			}
			if k.hi > hi {
				k.hi = hi
			}
			if k.hi > k.lo {
				covered += k.hi - k.lo
				at = k.hi
			}
		}
		self[s.ID] = s.Dur - covered
	}
	return self
}

// attribution is where the wall time of the traced roots (runs, steps or
// batches) went.
type attribution struct {
	roots   int
	total   time.Duration            // sum of root durations
	self    time.Duration            // sum of root self times: time in no op
	byClass map[string]time.Duration // op time per kernel class
	byKind  map[string]time.Duration // op time per op kind
	flops   map[string]float64       // computed FLOPs per kernel class
	bytes   map[string]float64       // computed bytes per kernel class
}

// attribute sums the op spans beneath the roots of one category.
func attribute(spans []span, rootCat string) attribution {
	a := attribution{
		byClass: map[string]time.Duration{}, byKind: map[string]time.Duration{},
		flops: map[string]float64{}, bytes: map[string]float64{},
	}
	self := selfTimes(spans)
	roots := map[int64]bool{}
	for _, s := range spans {
		if s.Cat == rootCat {
			roots[s.ID] = true
			a.roots++
			a.total += s.Dur
			a.self += self[s.ID]
		}
	}
	for _, s := range spans {
		if s.Cat != catOp || !roots[s.Parent] {
			continue
		}
		a.byClass[s.class] += s.Dur
		a.byKind[s.kind] += s.Dur
		a.flops[s.class] += s.flops
		a.bytes[s.class] += s.bytes
	}
	return a
}

// share is a class's part of the traced root wall time.
func (a attribution) share(d time.Duration) float64 {
	if a.total == 0 {
		return 0
	}
	return float64(d) / float64(a.total)
}

// rate is work per nanosecond, which reads as G-units per second.
func rate(work float64, d time.Duration) float64 {
	if d == 0 {
		return 0
	}
	return work / float64(d)
}

// chromeEvent is one complete ("X") event of the Chrome trace_event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChromeTrace writes the spans as trace_event JSON, which
// chrome://tracing and ui.perfetto.dev load.
func writeChromeTrace(path string, spans []span) error {
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		args := map[string]any{"id": s.ID, "parent": s.Parent, "req": s.Req}
		if s.Cat == catOp {
			args["kind"], args["class"] = s.kind, s.class
			args["alg"], args["layout"] = s.alg, s.layout
			args["flops"], args["bytes"] = s.flops, s.bytes
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.Cat, Ph: "X",
			TS: float64(s.Start) / 1e3, Dur: float64(s.Dur) / 1e3,
			PID: 1, TID: s.Lane, Args: args,
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
