package runtime

import (
	"time"

	"memcnn/internal/layers"
	"memcnn/internal/obs"
)

// Observer bundles the observability sinks the runtime's hooks feed: a trace
// recorder (op/stage/replica/queue spans, exportable as Chrome trace JSON)
// and a metrics registry (latency histograms, throughput and fault
// counters).  Either field may be nil to enable only one
// sink; the zero Observer disables instrumentation entirely.
//
// One Observer is meant to be shared across the whole serving stack —
// executor, pipeline, replica group and batch server all recording into the
// same Recorder keeps every span in one coherent timebase, which is what
// makes pipeline overlap and replica skew visible in a trace viewer.
//
// Instrument methods must be called before the component serves traffic;
// the instrumented hot paths themselves are concurrency-safe and
// allocation-free.
type Observer struct {
	Trace   *obs.Recorder
	Metrics *obs.Registry
}

// Enabled reports whether the observer carries at least one sink.
func (ob Observer) Enabled() bool { return ob.Trace != nil || ob.Metrics != nil }

// Trace lanes: each component renders its spans on a virtual thread ("lane")
// of the shared recorder.  Lane 1 is the single-engine lane; pipeline stages
// fan out from their caller's lane base (stage i on base+i) and replica r
// renders on LaneEngine+r; the batch server's workers use a high base so
// they never collide with engine lanes.
const (
	// LaneEngine is the default lane for a standalone executor or the first
	// pipeline stage.
	LaneEngine int32 = 1
	// laneServerBase is the first batch-server worker lane.
	laneServerBase int32 = 900
)

// Metric names the runtime registers.  All latency histograms observe
// microseconds.
const (
	metricOpLatency    = "memcnn_op_latency_us"
	metricRunLatency   = "memcnn_run_latency_us"
	metricStageLatency = "memcnn_stage_latency_us"
)

// execObs is an executor's prebuilt instrumentation: one template span and
// one set of metric handles per op, resolved at Instrument time so the hot
// path performs no lookups and no allocation — recording an op is two clock
// reads, one ring write and one histogram increment.
type execObs struct {
	rec   *obs.Recorder
	reg   *obs.Registry
	epoch time.Time // fallback clock when only metrics are attached
	lane  int32

	runSpan obs.Span
	runHist *obs.Histogram

	ops []opObs
}

// opObs is the per-op slice of an execObs.
type opObs struct {
	span obs.Span
	hist *obs.Histogram
}

// newExecObs resolves the per-op templates and metric handles for a program.
func newExecObs(prog *Program, ob Observer, lane int32) *execObs {
	net := prog.Net.Name
	eo := &execObs{
		rec:   ob.Trace,
		reg:   ob.Metrics,
		epoch: time.Now(),
		lane:  lane,
		runSpan: obs.Span{
			Name:   net,
			Cat:    obs.CatRun,
			Lane:   lane,
			Images: prog.InputShape().N,
		},
		runHist: ob.Metrics.Histogram(metricRunLatency,
			"End-to-end planned program execution latency.", obs.L("net", net)),
		ops: make([]opObs, len(prog.Ops)),
	}
	for i, op := range prog.Ops {
		o := &eo.ops[i]
		o.span = obs.Span{
			Name:   op.Name,
			Cat:    obs.CatOp,
			Lane:   lane,
			Kind:   op.Kind.String(),
			Layout: prog.Buffers[op.In].Layout.String(),
		}
		if _, ok := op.Layer.(*layers.Conv); ok && op.Kind == OpLayer {
			o.span.Alg = op.Alg.String()
		}
		o.hist = ob.Metrics.Histogram(metricOpLatency,
			"Per-op execution latency by op kind.",
			obs.L("net", net), obs.L("kind", op.Kind.String()))
	}
	return eo
}

// forProgram is eo's instrumentation, same sinks and lane, for a server bucket.
func (eo *execObs) forProgram(p *Program) *execObs {
	return newExecObs(p, Observer{Trace: eo.rec, Metrics: eo.reg}, eo.lane)
}

// now returns a span timestamp: the shared recorder's clock when tracing, a
// private monotonic clock when only metrics are attached.
func (eo *execObs) now() int64 {
	if eo.rec != nil {
		return eo.rec.Now()
	}
	return int64(time.Since(eo.epoch))
}

// observeOp records one executed op: its span (when tracing) and its op-kind
// latency histogram.
func (eo *execObs) observeOp(i int, t0 int64) {
	t1 := eo.now()
	o := &eo.ops[i]
	if eo.rec != nil {
		sp := o.span
		sp.StartNS, sp.DurNS = t0, t1-t0
		eo.rec.Record(sp)
	}
	o.hist.Observe(float64(t1-t0) / 1e3)
}

// observeRun records the whole-program span and run-latency histogram.
func (eo *execObs) observeRun(t0 int64) {
	t1 := eo.now()
	if eo.rec != nil {
		sp := eo.runSpan
		sp.StartNS, sp.DurNS = t0, t1-t0
		eo.rec.Record(sp)
	}
	eo.runHist.Observe(float64(t1-t0) / 1e3)
}
