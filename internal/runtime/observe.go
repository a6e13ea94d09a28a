package runtime

import (
	"fmt"
	"time"

	"memcnn/internal/layers"
	"memcnn/internal/obs"
)

// Observer bundles the observability sinks the runtime's hooks feed: a trace
// recorder (op/stage/replica/queue spans, exportable as Chrome trace JSON)
// and a metrics registry (latency histograms, throughput and fault counters,
// modeled-vs-measured drift).  Either field may be nil to enable only one
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
// and replicas fan out from their caller's lane base (stage i on base+i,
// replica r on base + r·stride); the batch server's workers use a high base
// so they never collide with engine lanes.
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
	metricOpMeasured   = "memcnn_op_measured_us_total"
	metricOpModeled    = "memcnn_op_modeled_us_total"
)

// execObs is an executor's prebuilt instrumentation: one template span and
// one set of metric handles per op, resolved at Instrument time so the hot
// path performs no lookups and no allocation — recording an op is two clock
// reads, one ring write and one histogram increment.
type execObs struct {
	rec   *obs.Recorder
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
	// measured/modeled accumulate the drift channel for layer ops on modeled
	// (SimDevice-chained) devices; nil otherwise.
	measured *obs.FloatCounter
	modeled  *obs.FloatCounter
}

// newExecObs resolves the per-op templates and metric handles for a program
// on a device.
func newExecObs(prog *Program, dev Device, ob Observer, lane int32) *execObs {
	net := prog.Net.Name
	eo := &execObs{
		rec:   ob.Trace,
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
	modeled := SimOf(dev) != nil
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
		if modeled && op.Kind == OpLayer {
			o.measured = ob.Metrics.FloatCounter(metricOpMeasured,
				"Measured wall time per layer op; divide memcnn_op_modeled_us_total by this for modeled-vs-measured drift.",
				obs.L("net", net), obs.L("op", op.Name))
			o.modeled = ob.Metrics.FloatCounter(metricOpModeled,
				"Modeled device time per layer op (SimDevice pricing).",
				obs.L("net", net), obs.L("op", op.Name))
		}
	}
	return eo
}

// now returns a span timestamp: the shared recorder's clock when tracing, a
// private monotonic clock when only metrics are attached.
func (eo *execObs) now() int64 {
	if eo.rec != nil {
		return eo.rec.Now()
	}
	return int64(time.Since(eo.epoch))
}

// observeOp records one executed op: its span (when tracing), its op-kind
// latency histogram, and the drift counters for modeled layer ops.
func (eo *execObs) observeOp(i int, t0 int64, modeledUS float64) {
	t1 := eo.now()
	o := &eo.ops[i]
	if eo.rec != nil {
		sp := o.span
		sp.StartNS, sp.DurNS, sp.ModeledUS = t0, t1-t0, modeledUS
		eo.rec.Record(sp)
	}
	us := float64(t1-t0) / 1e3
	o.hist.Observe(us)
	if o.measured != nil {
		o.measured.Add(us)
		o.modeled.Add(modeledUS)
	}
}

// observeRun records the whole-program span and run-latency histogram.
func (eo *execObs) observeRun(t0 int64, modeledUS float64) {
	t1 := eo.now()
	if eo.rec != nil {
		sp := eo.runSpan
		sp.StartNS, sp.DurNS, sp.ModeledUS = t0, t1-t0, modeledUS
		eo.rec.Record(sp)
	}
	eo.runHist.Observe(float64(t1-t0) / 1e3)
}

// DriftSample is one layer's accumulated modeled-vs-measured comparison,
// extracted from a metrics registry by DriftReport.
type DriftSample struct {
	Net        string
	Op         string
	MeasuredUS float64
	ModeledUS  float64
}

// Ratio returns measured/modeled — 1.0 means the hardware model prices the
// layer exactly; above 1 the layer runs slower than modeled.
func (d DriftSample) Ratio() float64 {
	if d.ModeledUS <= 0 {
		return 0
	}
	return d.MeasuredUS / d.ModeledUS
}

// DriftReport extracts the per-layer modeled-vs-measured drift channel from a
// registry: every layer op that executed on a modeled device chain, in
// registration (program) order.
func DriftReport(reg *obs.Registry) []DriftSample {
	if reg == nil {
		return nil
	}
	measured := map[string]*DriftSample{}
	var order []string
	for _, s := range reg.Snapshot() {
		if s.Name != metricOpMeasured && s.Name != metricOpModeled {
			continue
		}
		net, op := parseNetOpLabels(s.Labels)
		if op == "" {
			continue
		}
		key := net + "\x00" + op
		d, ok := measured[key]
		if !ok {
			d = &DriftSample{Net: net, Op: op}
			measured[key] = d
			order = append(order, key)
		}
		if s.Name == metricOpMeasured {
			d.MeasuredUS += s.Value
		} else {
			d.ModeledUS += s.Value
		}
	}
	out := make([]DriftSample, 0, len(order))
	for _, key := range order {
		out = append(out, *measured[key])
	}
	return out
}

// parseNetOpLabels pulls net="…" and op="…" out of a rendered label string.
func parseNetOpLabels(labels string) (net, op string) {
	// Labels are rendered by obs as `net="X",op="Y"`; values are %q-quoted.
	var rest string
	if _, err := fmt.Sscanf(labels, "net=%q,op=%q", &net, &rest); err == nil {
		return net, rest
	}
	return "", ""
}
