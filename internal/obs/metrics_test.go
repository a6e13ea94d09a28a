package obs

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// histBucketRatio is the geometric ratio between consecutive bucket bounds:
// the worst-case relative error of Histogram.Quantile.
const histBucketRatio = 1.1892071150027210667 // 2^(1/4)

// exposition reads reg's Prometheus text back: its series (name plus labels)
// in the order written, and each one's value.
func exposition(t *testing.T, reg *Registry) ([]string, map[string]float64) {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var series []string
	values := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("exposition line %q: %v", line, err)
		}
		series = append(series, line[:i])
		values[line[:i]] = v
	}
	return series, values
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var h *Histogram
	h.Observe(10)
	if h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Error("nil Histogram should observe nothing")
	}

	var r *Registry
	if r.Histogram("x", "") != nil {
		t.Error("nil Registry should hand out nil instruments")
	}
	r.GaugeFunc("x", "", func() float64 { return 1 })
	r.CounterFunc("x", "", func() float64 { return 1 })
	r.AdoptHistogram("x", "", &Histogram{})
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Errorf("nil Registry WritePrometheus: %v", err)
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	reg.CounterFunc("us", "", func() float64 { return 1.5 }, L("net", "LeNet"))
	// Same name+labels keeps the first registration.
	reg.CounterFunc("us", "", func() float64 { return -1 }, L("net", "LeNet"))
	// Different labels are a different series.
	reg.CounterFunc("us", "", func() float64 { return 7 }, L("net", "VGG"))
	if series, values := exposition(t, reg); len(series) != 2 || values[`us{net="LeNet"}`] != 1.5 || values[`us{net="VGG"}`] != 7 {
		t.Errorf("counters = %v, want LeNet 1.5 and VGG 7", values)
	}

	depth := 7.0
	reg.GaugeFunc("depth", "", func() float64 { return depth })
	depth = 8
	if _, values := exposition(t, reg); values["depth"] != 8 {
		t.Errorf("gauge reads %g, want its function's current value 8", values["depth"])
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
	if n := testing.AllocsPerRun(200, func() {
		h.Observe(123.4)
	}); n != 0 {
		t.Errorf("hot-path instruments allocate %.1f per op, want 0", n)
	}
}

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.CounterFunc("memcnn_requests_total", "served requests", func() float64 { return 42 }, L("net", "LeNet"))
	reg.CounterFunc("memcnn_requests_total", "served requests", func() float64 { return 7 }, L("net", "VGG"))
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
	if _, values := exposition(t, reg); values[`memcnn_queue_wait_us_count{net="LeNet"}`] != 1 {
		t.Errorf("exposition = %v, want the adopted histogram with 1 observation", values)
	}
}

// TestSnapshotOrderAndValues checks the order and values of the exposition, a
// snapshot of the registry: families sorted by name, a family's series in
// registration order, every value read when the text is written.
func TestSnapshotOrderAndValues(t *testing.T) {
	reg := NewRegistry()
	reg.CounterFunc("b_total", "", func() float64 { return 2 }, L("net", "VGG"))
	reg.GaugeFunc("a_gauge", "", func() float64 { return 1.5 })
	reg.CounterFunc("b_total", "", func() float64 { return 3 }, L("net", "LeNet"))
	c := 8.0
	reg.GaugeFunc("c_fn", "", func() float64 { return c })
	c = 9
	series, values := exposition(t, reg)
	want := []string{"a_gauge", `b_total{net="VGG"}`, `b_total{net="LeNet"}`, "c_fn"}
	if strings.Join(series, " ") != strings.Join(want, " ") {
		t.Errorf("order = %v, want %v", series, want)
	}
	if values["a_gauge"] != 1.5 || values[`b_total{net="VGG"}`] != 2 || values[`b_total{net="LeNet"}`] != 3 || values["c_fn"] != 9 {
		t.Errorf("values = %v", values)
	}
}
