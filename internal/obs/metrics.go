package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension; labels are rendered once at registration
// time, so attaching them costs nothing on the hot path.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// renderLabels builds the canonical `key="value",…` form in the given order.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	return b.String()
}

// FloatCounter is a monotonically increasing float metric — the shape modeled
// microsecond totals take, where increments are fractional.
type FloatCounter struct{ bits atomic.Uint64 }

// Add increments the counter.  Nil-safe, lock-free (CAS loop).
//
//memcnn:noalloc
func (c *FloatCounter) Add(v float64) {
	if c == nil {
		return
	}
	for {
		old := c.bits.Load()
		if c.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Value returns the current total.  Nil-safe.
//
//memcnn:noalloc
func (c *FloatCounter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Histogram bucket geometry: bucket i spans (HistMinUS·r^(i-1), HistMinUS·r^i]
// microseconds with r = 2^(1/4) — four buckets per doubling, so any quantile
// read from the buckets is within ~19% of the exact sample.  100 buckets reach
// ~33 s; slower observations land in the +Inf overflow bucket.
const (
	histBuckets = 100
	// HistMinUS is the upper bound of the first bucket in microseconds.
	HistMinUS = 1.0
)

// histBounds holds the shared per-bucket upper bounds in microseconds.
var histBounds = func() [histBuckets]float64 {
	var b [histBuckets]float64
	for i := range b {
		b[i] = HistMinUS * math.Pow(2, float64(i)/4)
	}
	return b
}()

// Histogram is a fixed-bucket latency histogram over microseconds: 100
// geometric buckets (four per doubling of latency) plus an overflow bucket,
// all updated with a single atomic increment, so Observe is wait-free and
// allocation-free.  A nil *Histogram observes nothing.
type Histogram struct {
	counts  [histBuckets + 1]atomic.Uint64
	sumBits atomic.Uint64 // float64 total of observed microseconds
	count   atomic.Uint64
}

// NewHistogram builds a standalone histogram — for components that always
// measure and only later surface the histogram in a registry via
// Registry.AdoptHistogram.  (The zero Histogram is also ready to use.)
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one latency in microseconds.  Nil-safe, allocation-free.
//
//memcnn:noalloc
func (h *Histogram) Observe(us float64) {
	if h == nil {
		return
	}
	h.counts[bucketFor(us)].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+us)) {
			return
		}
	}
}

// bucketFor maps a microsecond latency onto its bucket index.
//
//memcnn:noalloc
func bucketFor(us float64) int {
	if us <= HistMinUS {
		return 0
	}
	// Bucket i covers (r^(i-1), r^i]; with r = 2^(1/4) the index is
	// ceil(4·log2(us/min)).
	i := int(math.Ceil(4 * math.Log2(us/HistMinUS)))
	if i >= histBuckets {
		return histBuckets // overflow bucket
	}
	if i < 0 {
		return 0
	}
	return i
}

// Count returns the number of observations.  Nil-safe.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total of observed microseconds.  Nil-safe.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Quantile returns the upper bound of the bucket holding the q-quantile
// observation (q in [0,1]), in microseconds — an estimate at most the bucket
// ratio 2^(1/4) above the exact order statistic.  Observations in the
// overflow bucket report the last finite bound.  Zero when empty.  Nil-safe.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank is the 1-based index of the order statistic we want.
	rank := uint64(math.Ceil(q * float64(total)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i := 0; i <= histBuckets; i++ {
		cum += h.counts[i].Load()
		if cum >= rank {
			if i == histBuckets {
				return histBounds[histBuckets-1]
			}
			return histBounds[i]
		}
	}
	return histBounds[histBuckets-1]
}

// metricKind discriminates registry entries for exposition.
type metricKind uint8

const (
	kindFloatCounter metricKind = iota
	kindFunc
	kindCounterFunc
	kindHistogram
)

// metric is one registered series.
type metric struct {
	name   string // metric family name
	labels string // rendered `k="v",…` or ""
	help   string
	kind   metricKind

	fcount *FloatCounter
	fn     func() float64
	hist   *Histogram
}

func (m *metric) key() string { return m.name + "{" + m.labels + "}" }

// Registry holds a process's metrics: get-or-create registration (the same
// name+labels always returns the same instrument, so layers can share
// series), Prometheus text exposition, and a structured snapshot for
// programmatic reads.  Registration takes a lock; the returned instruments
// are lock-free.  A nil *Registry returns nil instruments from every
// registration, which are themselves nil-safe no-ops — so "metrics disabled"
// needs no branches at the call sites.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
	order   []string // registration order for stable exposition
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: map[string]*metric{}}
}

// register returns the existing series for key or creates it via build.
func (r *Registry) register(name, help string, labels []Label, kind metricKind, build func(*metric)) *metric {
	m := &metric{name: name, labels: renderLabels(labels), help: help, kind: kind}
	key := m.key()
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.metrics[key]; ok && old.kind == kind {
		return old
	}
	build(m)
	r.metrics[key] = m
	r.order = append(r.order, key)
	return m
}

// FloatCounter returns the float counter for name+labels.  Nil-safe.
func (r *Registry) FloatCounter(name, help string, labels ...Label) *FloatCounter {
	if r == nil {
		return nil
	}
	return r.register(name, help, labels, kindFloatCounter, func(m *metric) { m.fcount = &FloatCounter{} }).fcount
}

// GaugeFunc registers a gauge evaluated at exposition time by calling fn —
// how existing atomic counters (server stats, fault counters) surface in
// /metrics without a second copy that could disagree.  Nil-safe.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.register(name, help, labels, kindFunc, func(m *metric) { m.fn = fn })
}

// CounterFunc registers a monotonic counter evaluated at exposition time by
// calling fn — the idiom for surfacing counters that already exist as atomics
// elsewhere (server request counts, fault-tolerance counters): /metrics and
// the owner's own stats read the same memory, so they can never disagree.
// Nil-safe.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.register(name, help, labels, kindCounterFunc, func(m *metric) { m.fn = fn })
}

// Histogram returns the histogram for name+labels.  Nil-safe: a nil registry
// returns a nil (no-op) histogram.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.register(name, help, labels, kindHistogram, func(m *metric) { m.hist = &Histogram{} }).hist
}

// AdoptHistogram registers an externally owned histogram under name+labels,
// so a component that keeps its own always-on histogram (the batch server's
// queue-wait estimator input) can surface it in the registry without a second
// copy.  If the series already exists the existing instance is kept.
// Nil-safe.
func (r *Registry) AdoptHistogram(name, help string, h *Histogram, labels ...Label) {
	if r == nil || h == nil {
		return
	}
	r.register(name, help, labels, kindHistogram, func(m *metric) { m.hist = h })
}

// Sample is one series value in a Snapshot.
type Sample struct {
	Name   string  // metric family name
	Labels string  // rendered `k="v",…` or ""
	Value  float64 // counter/gauge value; histogram observation count
	// Hist is set for histogram series.
	Hist *Histogram
}

// Snapshot returns every registered series with its current value, in
// registration order — the programmatic mirror of the Prometheus exposition,
// used by front-ends to print drift tables and latency summaries.  Nil-safe.
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	keys := append([]string(nil), r.order...)
	metrics := make([]*metric, len(keys))
	for i, k := range keys {
		metrics[i] = r.metrics[k]
	}
	r.mu.Unlock()
	out := make([]Sample, 0, len(metrics))
	for _, m := range metrics {
		s := Sample{Name: m.name, Labels: m.labels}
		switch m.kind {
		case kindFloatCounter:
			s.Value = m.fcount.Value()
		case kindFunc, kindCounterFunc:
			s.Value = m.fn()
		case kindHistogram:
			s.Value = float64(m.hist.Count())
			s.Hist = m.hist
		}
		out = append(out, s)
	}
	return out
}

// WritePrometheus writes every series in Prometheus text exposition format
// (version 0.0.4): counters and gauges as single samples, histograms as
// cumulative le-labelled buckets with _sum and _count.  Families are grouped
// so # HELP/# TYPE headers appear once each.  Nil-safe.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	metrics := make([]*metric, 0, len(r.order))
	for _, k := range r.order {
		metrics = append(metrics, r.metrics[k])
	}
	r.mu.Unlock()
	// Group series into families (sorted by family name, registration order
	// within a family) so # HELP/# TYPE headers appear exactly once each.
	sort.SliceStable(metrics, func(a, b int) bool { return metrics[a].name < metrics[b].name })

	lastFamily := ""
	for _, m := range metrics {
		if m.name != lastFamily {
			lastFamily = m.name
			if m.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.name, promType(m.kind)); err != nil {
				return err
			}
		}
		if err := writeSeries(w, m); err != nil {
			return err
		}
	}
	return nil
}

func promType(k metricKind) string {
	switch k {
	case kindFloatCounter, kindCounterFunc:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// series renders `name{labels}` with optional extra labels appended.
func series(name, labels, extra string) string {
	all := labels
	if extra != "" {
		if all != "" {
			all += ","
		}
		all += extra
	}
	if all == "" {
		return name
	}
	return name + "{" + all + "}"
}

func writeSeries(w io.Writer, m *metric) error {
	switch m.kind {
	case kindFloatCounter:
		_, err := fmt.Fprintf(w, "%s %g\n", series(m.name, m.labels, ""), m.fcount.Value())
		return err
	case kindFunc, kindCounterFunc:
		_, err := fmt.Fprintf(w, "%s %g\n", series(m.name, m.labels, ""), m.fn())
		return err
	case kindHistogram:
		var cum uint64
		for i := 0; i <= histBuckets; i++ {
			cum += m.hist.counts[i].Load()
			le := "+Inf"
			if i < histBuckets {
				// Skip interior empty-tail buckets to keep the exposition
				// readable: always emit buckets with mass, the first bucket
				// and +Inf.
				if m.hist.counts[i].Load() == 0 && i > 0 {
					continue
				}
				le = fmt.Sprintf("%g", histBounds[i])
			}
			if _, err := fmt.Fprintf(w, "%s %d\n",
				series(m.name+"_bucket", m.labels, fmt.Sprintf("le=%q", le)), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s %g\n", series(m.name+"_sum", m.labels, ""), m.hist.Sum()); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s %d\n", series(m.name+"_count", m.labels, ""), m.hist.Count())
		return err
	}
	return nil
}
