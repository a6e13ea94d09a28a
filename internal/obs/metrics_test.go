package obs

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

// histBucketRatio is the geometric ratio between consecutive bucket bounds:
// the worst-case relative error of Histogram.Quantile.
const histBucketRatio = 1.1892071150027210667 // 2^(1/4)

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var fc *FloatCounter
	fc.Add(1.5)
	if fc.Value() != 0 {
		t.Error("nil FloatCounter should stay 0")
	}
	var h *Histogram
	h.Observe(10)
	if h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Error("nil Histogram should observe nothing")
	}

	var r *Registry
	if r.FloatCounter("x", "") != nil || r.Histogram("x", "") != nil {
		t.Error("nil Registry should hand out nil instruments")
	}
	r.GaugeFunc("x", "", func() float64 { return 1 })
	r.CounterFunc("x", "", func() float64 { return 1 })
	r.AdoptHistogram("x", "", &Histogram{})
	if r.Snapshot() != nil {
		t.Error("nil Registry Snapshot should be nil")
	}
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Errorf("nil Registry WritePrometheus: %v", err)
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	fc := reg.FloatCounter("us", "", L("net", "LeNet"))
	fc.Add(1.25)
	fc.Add(0.25)
	if fc.Value() != 1.5 {
		t.Errorf("float counter = %g, want 1.5", fc.Value())
	}
	// Same name+labels must return the same instrument.
	if fc2 := reg.FloatCounter("us", "", L("net", "LeNet")); fc2 != fc {
		t.Error("re-registration returned a different counter")
	}
	// Different labels are a different series.
	if fc3 := reg.FloatCounter("us", "", L("net", "VGG")); fc3 == fc {
		t.Error("different labels returned the same counter")
	}

	depth := 7.0
	reg.GaugeFunc("depth", "", func() float64 { return depth })
	depth = 8
	if snap := reg.Snapshot(); snap[len(snap)-1].Value != 8 {
		t.Errorf("gauge reads %g, want its function's current value 8", snap[len(snap)-1].Value)
	}
}

// TestHistogramQuantileVsExact checks the bucketed quantile against the exact
// order statistic of the same samples: the estimate must never fall below it
// and never exceed it by more than the bucket ratio.
func TestHistogramQuantileVsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := &Histogram{}
	samples := make([]float64, 0, 5000)
	for i := 0; i < 5000; i++ {
		// Log-uniform over [1us, ~1s] — the latency range the runtime sees.
		v := math.Pow(10, rng.Float64()*6)
		samples = append(samples, v)
		h.Observe(v)
	}
	sort.Float64s(samples)
	if h.Count() != 5000 {
		t.Fatalf("Count = %d, want 5000", h.Count())
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	if math.Abs(h.Sum()-sum) > 1e-6*sum {
		t.Errorf("Sum = %g, want %g", h.Sum(), sum)
	}
	for _, q := range []float64{0.01, 0.25, 0.50, 0.90, 0.95, 0.99, 1.0} {
		exact := samples[int(math.Ceil(q*5000))-1]
		got := h.Quantile(q)
		if got < exact || got > exact*histBucketRatio {
			t.Errorf("Quantile(%g) = %g, exact %g: outside [exact, exact*%g]",
				q, got, exact, histBucketRatio)
		}
	}
}

func TestHistogramEdges(t *testing.T) {
	h := &Histogram{}
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
	h.Observe(0.001) // below the first bound -> bucket 0
	if got := h.Quantile(1); got != HistMinUS {
		t.Errorf("sub-minimum sample quantile = %g, want first bound %g", got, HistMinUS)
	}
	h2 := &Histogram{}
	h2.Observe(1e12) // far past the last bucket -> overflow
	if got, last := h2.Quantile(1), histBounds[histBuckets-1]; got != last {
		t.Errorf("overflow sample quantile = %g, want last finite bound %g", got, last)
	}
	// Out-of-range q clamps instead of panicking.
	h2.Observe(2)
	if h2.Quantile(-1) == 0 || h2.Quantile(2) == 0 {
		t.Error("clamped quantiles should still report a bucket bound")
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := &Histogram{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= 1000; i++ {
				h.Observe(float64(i))
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Errorf("Count = %d, want 8000", h.Count())
	}
	if want := 8 * 1000 * 1001 / 2.0; math.Abs(h.Sum()-want) > 1e-6 {
		t.Errorf("Sum = %g, want %g", h.Sum(), want)
	}
}

func TestObserveAllocationFree(t *testing.T) {
	h := &Histogram{}
	fc := &FloatCounter{}
	if n := testing.AllocsPerRun(200, func() {
		h.Observe(123.4)
		fc.Add(0.5)
	}); n != 0 {
		t.Errorf("hot-path instruments allocate %.1f per op, want 0", n)
	}
}

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.FloatCounter("memcnn_requests_total", "served requests", L("net", "LeNet")).Add(42)
	reg.FloatCounter("memcnn_requests_total", "served requests", L("net", "VGG")).Add(7)
	reg.GaugeFunc("memcnn_unhealthy_replicas", "replicas out of rotation", func() float64 { return 1 })
	reg.CounterFunc("memcnn_fault_retries_total", "retried sub-batches", func() float64 { return 3 })
	h := reg.Histogram("memcnn_op_latency_us", "per-op latency", L("net", "LeNet"), L("kind", "layer"))
	h.Observe(0.5) // bucket 0, le="1"
	h.Observe(3.0)
	h.Observe(3.1)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	for _, want := range []string{
		"# HELP memcnn_requests_total served requests\n",
		"# TYPE memcnn_requests_total counter\n",
		`memcnn_requests_total{net="LeNet"} 42` + "\n",
		`memcnn_requests_total{net="VGG"} 7` + "\n",
		"# TYPE memcnn_unhealthy_replicas gauge\n",
		"memcnn_unhealthy_replicas 1\n",
		"# TYPE memcnn_fault_retries_total counter\n",
		"memcnn_fault_retries_total 3\n",
		"# TYPE memcnn_op_latency_us histogram\n",
		`memcnn_op_latency_us_bucket{net="LeNet",kind="layer",le="1"} 1` + "\n",
		`memcnn_op_latency_us_bucket{net="LeNet",kind="layer",le="+Inf"} 3` + "\n",
		`memcnn_op_latency_us_sum{net="LeNet",kind="layer"} 6.6` + "\n",
		`memcnn_op_latency_us_count{net="LeNet",kind="layer"} 3` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, out)
		}
	}
	// Family headers must appear exactly once even with two series.
	if got := strings.Count(out, "# TYPE memcnn_requests_total"); got != 1 {
		t.Errorf("TYPE header for memcnn_requests_total appears %d times, want 1", got)
	}
	// Bucket counts are cumulative: both 3.0 and 3.1 land in the same
	// geometric bucket, so its cumulative count includes the first sample.
	if !strings.Contains(out, `le="3.36359"`) && !strings.Contains(out, `le="3.363586"`) {
		// The exact rendering of the bound is %g; just require SOME interior
		// bucket carries cumulative count 3.
		if !strings.Contains(out, "} 3\n") {
			t.Errorf("no cumulative bucket reaches 3:\n%s", out)
		}
	}
}

func TestAdoptHistogram(t *testing.T) {
	reg := NewRegistry()
	own := NewHistogram()
	own.Observe(5)
	reg.AdoptHistogram("memcnn_queue_wait_us", "queue wait", own, L("net", "LeNet"))
	// Registering the same series again must keep the adopted instance.
	if h := reg.Histogram("memcnn_queue_wait_us", "queue wait", L("net", "LeNet")); h != own {
		t.Error("Histogram() after AdoptHistogram returned a different instance")
	}
	snap := reg.Snapshot()
	if len(snap) != 1 || snap[0].Hist != own || snap[0].Value != 1 {
		t.Errorf("Snapshot = %+v, want the adopted histogram with 1 observation", snap)
	}
}

func TestSnapshotOrderAndValues(t *testing.T) {
	reg := NewRegistry()
	reg.FloatCounter("b_total", "").Add(2)
	reg.GaugeFunc("a_gauge", "", func() float64 { return 1.5 })
	reg.GaugeFunc("c_fn", "", func() float64 { return 9 })
	snap := reg.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("got %d samples, want 3", len(snap))
	}
	// Snapshot preserves registration order, not name order.
	if snap[0].Name != "b_total" || snap[1].Name != "a_gauge" || snap[2].Name != "c_fn" {
		t.Errorf("order = %s,%s,%s", snap[0].Name, snap[1].Name, snap[2].Name)
	}
	if snap[0].Value != 2 || snap[1].Value != 1.5 || snap[2].Value != 9 {
		t.Errorf("values = %g,%g,%g", snap[0].Value, snap[1].Value, snap[2].Value)
	}
}
