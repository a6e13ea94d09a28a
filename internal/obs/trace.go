// Package obs is the runtime's observability substrate: a ring-buffered trace
// recorder whose spans export as Chrome trace_event JSON (loadable in
// chrome://tracing or Perfetto), and a metrics registry of atomic counters,
// gauges and fixed-bucket latency histograms exposable in Prometheus text
// format.
//
// The package is deliberately free of runtime dependencies — it knows nothing
// about programs, devices or tensors — so every layer of the execution stack
// (executor ops, pipeline stages, replica sub-batches, server batching) can
// hook into one shared Recorder/Registry pair without import cycles.
//
// Both the Recorder and the Registry are designed around a hard
// zero-overhead-when-disabled contract: every hot-path method is nil-safe
// (a nil *Recorder records nothing and a nil *Histogram observes nothing at
// the cost of one pointer test), and the enabled paths never allocate — a
// span is a value copied into a preallocated ring slot, a histogram
// observation is an atomic bucket increment.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Category classifies a span by the execution layer that produced it; it maps
// onto the trace_event "cat" field so viewers can filter one layer at a time.
type Category uint8

// The span categories, one per layer of the serving stack.
const (
	// CatOp is one compiled op (layer, transform, reshape, …) on a device.
	CatOp Category = iota
	// CatRun is one whole program execution on one executor.
	CatRun
	// CatStage is one batch crossing one pipeline stage.
	CatStage
	// CatReplica is one sub-batch on one replica of a group.
	CatReplica
	// CatQueue is one request's wait in the batching queue.
	CatQueue
	// CatCoalesce is one worker assembling a batch from the queue.
	CatCoalesce
	// CatBatch is one coalesced batch executing through the serving engine.
	CatBatch
)

// String names the category (the trace_event "cat" value).
func (c Category) String() string {
	switch c {
	case CatOp:
		return "op"
	case CatRun:
		return "run"
	case CatStage:
		return "stage"
	case CatReplica:
		return "replica"
	case CatQueue:
		return "queue"
	case CatCoalesce:
		return "coalesce"
	case CatBatch:
		return "batch"
	default:
		return fmt.Sprintf("Category(%d)", uint8(c))
	}
}

// Span is one recorded interval.  All string fields are expected to be
// prepared once at instrumentation time (op names, algorithm names) so that
// recording a span copies headers into the ring without allocating.
type Span struct {
	// Name labels the span in the viewer (op name, "stage 1", "batch").
	Name string
	// Cat is the execution layer the span belongs to.
	Cat Category
	// Lane is the virtual thread the span renders on (see Recorder.SetLane);
	// spans on one lane should not overlap for a readable trace.
	Lane int32
	// StartNS and DurNS are nanoseconds relative to the recorder's epoch
	// (Recorder.Now supplies StartNS-compatible timestamps).
	StartNS int64
	DurNS   int64
	// Kind optionally subtypes the span ("layer", "transform", …).
	Kind string
	// Alg and Layout carry a conv op's compiled algorithm and buffer layout.
	Alg    string
	Layout string
	// Images is the batch size the span processed, zero when not meaningful.
	Images int
}

// Recorder is a bounded in-memory trace: the last capacity spans, oldest
// evicted first.  A nil *Recorder is a valid recorder that records nothing —
// the disabled fast path costs one nil test.  All methods are safe for
// concurrent use.
type Recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []Span
	next  uint64 // total spans ever recorded; next % cap is the write slot
	lanes map[int32]string
}

// DefaultCapacity is the ring size NewRecorder uses for capacity <= 0.
const DefaultCapacity = 1 << 16

// NewRecorder builds a recorder retaining the last capacity spans
// (DefaultCapacity when capacity <= 0).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{
		epoch: time.Now(),
		spans: make([]Span, capacity),
		lanes: map[int32]string{},
	}
}

// Now returns the recorder's clock: nanoseconds since its epoch, the timebase
// Span.StartNS lives in.  Nil-safe (returns 0), monotonic, allocation-free.
//
//memcnn:noalloc
func (r *Recorder) Now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.epoch))
}

// Record appends one span, evicting the oldest when the ring is full.
// Nil-safe and allocation-free: the span value is copied into its slot.
//
//memcnn:noalloc
func (r *Recorder) Record(sp Span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans[r.next%uint64(len(r.spans))] = sp
	r.next++
	r.mu.Unlock()
}

// SetLane names a virtual thread for the trace viewer ("stage 0",
// "replica 1", "server w0").  Nil-safe.
func (r *Recorder) SetLane(lane int32, name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.lanes[lane] = name
	r.mu.Unlock()
}

// Len returns the total number of spans ever recorded (not capped by the
// ring).  Nil-safe.
func (r *Recorder) Len() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

// Cap returns the ring capacity.  Nil-safe.
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.spans)
}

// Snapshot returns the retained spans oldest-first: the last min(Len, Cap)
// spans recorded.  The slice is a copy; the recorder keeps running.
func (r *Recorder) Snapshot() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snapshotLocked()
}

func (r *Recorder) snapshotLocked() []Span {
	capacity := uint64(len(r.spans))
	n := r.next
	if n > capacity {
		n = capacity
	}
	out := make([]Span, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, r.spans[(r.next-n+i)%capacity])
	}
	return out
}

// chromeEvent is one trace_event object; the subset of the Chrome trace-event
// format Perfetto and chrome://tracing consume for complete ("X") and
// metadata ("M") events.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int32          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level trace object ({"traceEvents":[...]}).
type chromeTrace struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

// WriteChromeTrace writes the last `last` retained spans (all of them when
// last <= 0) as Chrome trace_event JSON: one metadata event naming each lane,
// then one complete event per span with the span's kind, algorithm, layout
// and batch size in args.  The output loads directly in
// chrome://tracing and Perfetto.  Export is off the hot path and may
// allocate freely.
func (r *Recorder) WriteChromeTrace(w io.Writer, last int) error {
	if r == nil {
		return fmt.Errorf("obs: no trace recorder attached")
	}
	r.mu.Lock()
	spans := r.snapshotLocked()
	lanes := make(map[int32]string, len(r.lanes))
	for id, name := range r.lanes {
		lanes[id] = name
	}
	r.mu.Unlock()
	if last > 0 && len(spans) > last {
		spans = spans[len(spans)-last:]
	}

	trace := chromeTrace{TraceEvents: make([]chromeEvent, 0, len(spans)+len(lanes))}
	laneIDs := make([]int32, 0, len(lanes))
	for id := range lanes {
		laneIDs = append(laneIDs, id)
	}
	sort.Slice(laneIDs, func(a, b int) bool { return laneIDs[a] < laneIDs[b] })
	for _, id := range laneIDs {
		trace.TraceEvents = append(trace.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: id,
			Args: map[string]any{"name": lanes[id]},
		})
	}
	for _, sp := range spans {
		ev := chromeEvent{
			Name: sp.Name,
			Cat:  sp.Cat.String(),
			Ph:   "X",
			TS:   float64(sp.StartNS) / 1e3,
			Dur:  float64(sp.DurNS) / 1e3,
			PID:  1,
			TID:  sp.Lane,
		}
		args := map[string]any{}
		if sp.Kind != "" {
			args["kind"] = sp.Kind
		}
		if sp.Alg != "" {
			args["alg"] = sp.Alg
		}
		if sp.Layout != "" {
			args["layout"] = sp.Layout
		}
		if sp.Images > 0 {
			args["images"] = sp.Images
		}
		if len(args) > 0 {
			ev.Args = args
		}
		trace.TraceEvents = append(trace.TraceEvents, ev)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(trace)
}
