package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"memcnn/internal/kernels"
	memruntime "memcnn/internal/runtime"
	"memcnn/internal/workloads"
)

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[99-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(v, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	// With fewer than a hundred samples the p99 is the largest one.
	if got := percentile([]float64{3, 9, 4}, 0.99); got != 9 {
		t.Errorf("p99 of three samples = %v, want the largest, 9", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
}

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{9, 0}, {19, 0}, {20, 0.50}, {40, 0.75}, {100, 0.90}, {200, 0.95},
		{999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := spread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if got, want := spread([]float64{1, 2, 4, 8, 16}), (12.0-1.5)/4; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread(1,2,4,8,16) = %v, want %v", got, want)
	}
	if got := spread([]float64{7, 7, 7, 7}); got != 0 {
		t.Errorf("spread of a constant = %v, want 0", got)
	}
}

func TestHostCorrectRescalesEachOperationByTheProbesAroundIt(t *testing.T) {
	// The host runs at its nominal speed for the first operation, at half of
	// it for the second, and changes back during the third.
	n := float64(probeNominalMS)
	tm := timing{latMS: []float64{100, 200, 150}, wall: 450 * time.Millisecond}
	tm.hostCorrect([]float64{n, n, 2 * n, 2 * n})
	want := []float64{100, 200 / 1.5, 75}
	for i := range want {
		if math.Abs(tm.latMS[i]-want[i]) > 1e-9 {
			t.Errorf("corrected time %d = %v, want %v", i, tm.latMS[i], want[i])
		}
	}
	if got, want := ms(tm.wall), 100+200/1.5+75; math.Abs(got-want) > 1e-3 {
		t.Errorf("corrected wall = %v ms, want %v", got, want)
	}
	if !reflect.DeepEqual(tm.rawMS, []float64{100, 200, 150}) || tm.rawWall != 450*time.Millisecond {
		t.Errorf("raw figures not kept: %v, %v", tm.rawMS, tm.rawWall)
	}
}

func TestHostProbeRunsAndOwnsItsMemory(t *testing.T) {
	hp, err := newHostProbe()
	if err != nil {
		t.Fatal(err)
	}
	if got := hp.run(); got <= 0 {
		t.Errorf("probe took %v ms", got)
	}
	if got, want := hp.residentMiB(), float64(len(hp.bufs)*probeFloats*4)/(1<<20); got != want {
		t.Errorf("probe holds %v MiB, want %v", got, want)
	}
}

func TestSelfTimeFromNestedSpans(t *testing.T) {
	us := time.Microsecond
	spans := []span{
		{ID: 1, Cat: catRun, Start: 0, Dur: 100 * us},
		{ID: 2, Parent: 1, Cat: catOp, Start: 10 * us, Dur: 30 * us}, // 10..40
		{ID: 3, Parent: 1, Cat: catOp, Start: 30 * us, Dur: 30 * us}, // 30..60 overlaps span 2
		{ID: 4, Parent: 1, Cat: catOp, Start: 90 * us, Dur: 30 * us}, // 90..120 sticks out
		{ID: 5, Parent: 2, Cat: catOp, Start: 15 * us, Dur: 5 * us},  // a grandchild of the run
		{ID: 6, Cat: catRun, Start: 200 * us, Dur: 50 * us},          // a root without children
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 40 * us, 2: 25 * us, 3: 30 * us, 4: 30 * us, 5: 5 * us, 6: 50 * us}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}

	for i := range spans {
		if spans[i].Cat == catOp {
			spans[i].class = classGemm
		}
	}
	a := attribute(spans, catRun)
	if a.roots != 2 || a.total != 150*us || a.self != 90*us {
		t.Errorf("attribute: roots %d total %v self %v, want 2, 150µs, 90µs", a.roots, a.total, a.self)
	}
	// Only ops directly beneath a root count: spans 2, 3 and 4.
	if a.byClass[classGemm] != 90*us {
		t.Errorf("attribute: gemm time %v, want 90µs", a.byClass[classGemm])
	}
}

func TestPoissonScheduleIsDeterministic(t *testing.T) {
	const rate, span = 40.0, 20 * time.Second
	a := poissonSchedule(rate, span, stream(7, 3))
	b := poissonSchedule(rate, span, stream(7, 3))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if c := poissonSchedule(rate, span, stream(8, 3)); reflect.DeepEqual(a, c) {
		t.Error("two seeds gave the same schedule")
	}
	if d := poissonSchedule(rate, span, stream(7, 4)); reflect.DeepEqual(a, d) {
		t.Error("two streams of one seed gave the same schedule")
	}
	// 800 arrivals expected, standard deviation about 28.
	if n := len(a); n < 650 || n > 950 {
		t.Errorf("%d arrivals in %v at %v/s, want about 800", n, span, rate)
	}
	for i, due := range a {
		if due < 0 || due >= span || (i > 0 && due < a[i-1]) {
			t.Fatalf("arrival %d due at %v: out of the phase or out of order", i, due)
		}
	}
}

func TestBacklogGrowing(t *testing.T) {
	steady := make([]int, 300)
	growing := make([]int, 300)
	burst := make([]int, 300)
	for i := range steady {
		steady[i] = 4 + i%3
		growing[i] = 4 + i/5
		burst[i] = 5
		if i > 100 && i < 150 {
			burst[i] = 40 // a stall in the middle that drained
		}
	}
	if backlogGrowing(steady) {
		t.Error("a steady backlog reads as growing")
	}
	if !backlogGrowing(growing) {
		t.Error("a backlog that climbs to the end reads as steady")
	}
	if backlogGrowing(burst) {
		t.Error("a stall that drained reads as growing")
	}
}

func TestWorkFormulas(t *testing.T) {
	// LeNet conv1 at batch 128: 1 -> 20 maps of 28x28, 5x5 filters, padding 2.
	cfg := kernels.ConvConfig{N: 128, C: 1, H: 28, W: 28, K: 20, FH: 5, FW: 5, PadH: 2, PadW: 2}
	flops, bytes := convWork(cfg)
	if want := 2.0 * 128 * 20 * 28 * 28 * 1 * 25; flops != want {
		t.Errorf("conv FLOPs = %v, want %v", flops, want)
	}
	if want := 4.0 * (128*1*28*28 + 128*20*28*28 + 20*1*5*5); bytes != want {
		t.Errorf("conv bytes = %v, want %v", bytes, want)
	}
	// AlexNet conv1 at batch 4: stride 4, no padding, 227 -> 55.
	cfg = kernels.ConvConfig{N: 4, C: 3, H: 227, W: 227, K: 96, FH: 11, FW: 11, StrideH: 4, StrideW: 4}
	if flops, _ := convWork(cfg); flops != 2.0*4*96*55*55*3*121 {
		t.Errorf("strided conv FLOPs = %v, want %v", flops, 2.0*4*96*55*55*3*121)
	}
	pool := kernels.PoolConfig{N: 8, C: 32, H: 24, W: 24, Window: 3, Stride: 2}
	flops, bytes = poolWork(pool)
	if want := 8.0 * 32 * 11 * 11 * 9; flops != want {
		t.Errorf("pool FLOPs = %v, want %v", flops, want)
	}
	if want := 4.0 * (8*32*24*24 + 8*32*11*11); bytes != want {
		t.Errorf("pool bytes = %v, want %v", bytes, want)
	}
	flops, bytes = fcWork(4, 9216, 4096)
	if flops != 2.0*4*9216*4096 || bytes != 4.0*(4*9216+9216*4096+4*4096) {
		t.Errorf("fc work = %v FLOPs, %v bytes", flops, bytes)
	}
}

func TestDescribeOpClassifiesTheCompiledProgram(t *testing.T) {
	net, err := workloads.Cifar10WithBatch(serveBatch)
	if err != nil {
		t.Fatal(err)
	}
	c, err := compileNet(net)
	if err != nil {
		t.Fatal(err)
	}
	classes := map[string]int{}
	for _, op := range c.prog.Ops {
		info := describeOp(c.prog, op)
		classes[info.class]++
		if op.Kind == memruntime.OpLayer && info.class == classOther {
			t.Errorf("layer op %q has no class", op.Name)
		}
	}
	// The workload table says serve-cifar8 is the one with an FFT convolution.
	if classes[classFFT] == 0 || classes[classGemm] == 0 || classes[classPool] == 0 {
		t.Errorf("Cifar10 at batch %d compiled to classes %v; want fft, gemm and pool among them", serveBatch, classes)
	}
	m := metrics{}
	selectionMetrics(m, c.prog)
	if int(m["select.fft_layers"]) != classes[classFFT] || int(m["select.gemm_layers"]) != classes[classGemm] {
		t.Errorf("selection metrics %v disagree with op classes %v", m, classes)
	}
}

func TestGoldenRoundTrip(t *testing.T) {
	rows := make([][]float32, alexPoolImages)
	for i := range rows {
		rows[i] = []float32{float32(i), 1e-30, -0.25, math.MaxFloat32, float32(math.Inf(1)), 1.0 / 3}
	}
	data, err := marshalGolden(rows)
	if err != nil {
		t.Fatal(err)
	}
	back, err := parseGolden(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, rows) {
		t.Errorf("round trip changed the rows:\n got %v\nwant %v", back, rows)
	}
	if _, err := parseGolden([]byte(`{"network":"LeNet"}`)); err == nil {
		t.Error("a golden file for another network parsed without error")
	}
}

func TestCheckedInGoldenParses(t *testing.T) {
	rows, err := parseGolden(goldenAlexNet)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		var sum float64
		for _, p := range row {
			sum += float64(p)
		}
		if len(row) != 1000 || math.Abs(sum-1) > 1e-3 {
			t.Errorf("image %d: %d probabilities summing to %v", i, len(row), sum)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json in step with the program: the
// same workloads, the same metrics, the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloadDefs))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadDefs[i].name || w.Why != workloadDefs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloadDefs[i].name, workloadDefs[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, over 200", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, g := range got {
			if g.Name != want[i].name || g.Unit != want[i].unit || g.Better != want[i].better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, want[i])
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound <= 0 || *g.Bound > 0.25)) {
				t.Errorf("%s metric %s: bound %v", kind, g.Name, g.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndDefs, true)
	check("per_layer", spec.PerLayer, perLayerDefs, false)
}
