package runtime_test

import (
	"bytes"
	"context"
	"encoding/json"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"memcnn/internal/obs"
	"memcnn/internal/runtime"
	"memcnn/internal/runtime/replica"
	"memcnn/internal/tensor"
	"memcnn/internal/workloads"
)

// metricValues reads reg's Prometheus exposition, what /metrics serves, back
// into a map from series (name plus labels) to value.
func metricValues(t *testing.T, reg *obs.Registry) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	values := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("exposition line %q: %v", line, err)
		}
		values[line[:i]] = v
	}
	return values
}

// observedFixture compiles TinyNet in CHWN and builds its executor.
func observedFixture(t *testing.T) (*runtime.Program, *runtime.Executor, *tensor.Tensor, *tensor.Tensor) {
	t.Helper()
	net, err := workloads.TinyNet()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compileFixedLayout(net, tensor.CHWN, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	exec := runtime.NewExecutor(prog)
	in := tensor.Random(net.InputShape(), tensor.CHWN, 1)
	out := tensor.New(prog.OutputShape(), tensor.CHWN)
	return prog, exec, in, out
}

// TestInstrumentAddsNoAllocations pins the hot-path contract from both sides:
// an executor with observability detached must allocate exactly what the
// never-instrumented executor allocates, and attaching a full observer
// (recorder + registry) must not add a single allocation per run either — spans are value copies
// into the ring, observations are atomic increments.
func TestInstrumentAddsNoAllocations(t *testing.T) {
	_, exec, in, out := observedFixture(t)
	run := func() {
		if err := exec.RunInto(in, out); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the arena pool
	base := testing.AllocsPerRun(100, run)

	ob := runtime.Observer{Trace: obs.NewRecorder(1 << 10), Metrics: obs.NewRegistry()}
	exec.Instrument(ob, runtime.LaneEngine)
	run() // let lazy metric registration settle
	if enabled := testing.AllocsPerRun(100, run); enabled > base {
		t.Errorf("instrumented run allocates %.1f/run, uninstrumented %.1f — tracing must add zero", enabled, base)
	}

	exec.Instrument(runtime.Observer{}, runtime.LaneEngine) // detach
	if disabled := testing.AllocsPerRun(100, run); disabled > base {
		t.Errorf("detached run allocates %.1f/run, uninstrumented %.1f — disabled path must add zero", disabled, base)
	}
}

// TestExecutorSpans checks what an instrumented executor records: one run span
// plus one op span per compiled op per execution, op spans carrying
// kind/layout (and the conv algorithm on conv layers), and latency histograms
// per op kind.
func TestExecutorSpans(t *testing.T) {
	prog, exec, in, out := observedFixture(t)
	rec := obs.NewRecorder(1 << 10)
	reg := obs.NewRegistry()
	exec.Instrument(runtime.Observer{Trace: rec, Metrics: reg}, runtime.LaneEngine)

	const runs = 3
	for i := 0; i < runs; i++ {
		if err := exec.RunInto(in, out); err != nil {
			t.Fatal(err)
		}
	}

	spans := rec.Snapshot()
	// Aliased reshapes are free views the executor never runs, so they record
	// no spans; every other op must record one span per execution.
	execOps := 0
	for _, op := range prog.Ops {
		if op.Kind == runtime.OpReshape && prog.Buffers[op.Out].AliasOf != runtime.NoBuffer {
			continue
		}
		execOps++
	}
	byCat := map[string]int{}
	convSpans := 0
	for _, sp := range spans {
		byCat[sp.Cat.String()]++
		if sp.Lane != runtime.LaneEngine {
			t.Errorf("span %q on lane %d, want %d", sp.Name, sp.Lane, runtime.LaneEngine)
		}
		if sp.Cat == obs.CatOp {
			if sp.Kind == "" || sp.Layout == "" {
				t.Errorf("op span %q missing kind/layout: %+v", sp.Name, sp)
			}
			if sp.Alg != "" {
				convSpans++
			}
		}
	}
	if byCat["op"] != runs*execOps || byCat["run"] != runs {
		t.Errorf("recorded %d op / %d run spans, want %d / %d", byCat["op"], byCat["run"], runs*execOps, runs)
	}
	if convSpans == 0 {
		t.Error("no op span carries a conv algorithm")
	}

	values := metricValues(t, reg)
	var opObservations float64
	for series, v := range values {
		if strings.HasPrefix(series, "memcnn_op_latency_us_count{") {
			opObservations += v
		}
	}
	if n := values[`memcnn_run_latency_us_count{net="TinyNet"}`]; n != runs {
		t.Errorf("run latency counts %g, want %d", n, runs)
	}
	if sum := values[`memcnn_run_latency_us_sum{net="TinyNet"}`]; sum <= 0 {
		t.Errorf("run latency sums to %g us, want > 0", sum)
	}
	if opObservations != float64(runs*execOps) {
		t.Errorf("op latency histograms hold %g observations, want %d", opObservations, runs*execOps)
	}
}

// TestServerPipelinedInstrumented drives the pipelined server fixture with a
// shared observer attached (run under -race by CI: four workers walk the two
// stages and all record into one ring) and then checks the whole span
// taxonomy landed — queue, coalesce, batch, stage — that the stage spans on
// each stage's lane never overlap, plus the serving metrics and the
// histogram-backed queue-wait stats that replaced the EWMA estimate.
func TestServerPipelinedInstrumented(t *testing.T) {
	prog, images, _ := serverFixture(t)
	sp, err := runtime.Shard(prog, 2, runtime.ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(1 << 12)
	reg := obs.NewRegistry()
	ob := runtime.Observer{Trace: rec, Metrics: reg}

	pipe := runtime.NewPipelineExecutor(sp)
	defer pipe.Close()
	pipe.Instrument(ob, runtime.LaneEngine)
	srv, err := runtime.NewServerWith(prog, pipe, runtime.ServerConfig{
		MaxDelay: 5 * time.Millisecond,
		Workers:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Instrument(ob)

	const concurrent = 96
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := srv.Infer(ctx, images[i%len(images)]); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()

	byCat := map[string]int{}
	for _, sp := range rec.Snapshot() {
		byCat[sp.Cat.String()]++
	}
	for _, cat := range []string{"queue", "coalesce", "batch", "stage", "op", "run"} {
		if byCat[cat] == 0 {
			t.Errorf("no %q spans recorded (got %v)", cat, byCat)
		}
	}

	// A stage runs one batch at a time, so on each stage lane a stage span
	// starts no earlier than the previous one ended.
	stageSpans := map[int32][]obs.Span{}
	for _, sp := range rec.Snapshot() {
		if sp.Cat == obs.CatStage {
			stageSpans[sp.Lane] = append(stageSpans[sp.Lane], sp)
		}
	}
	if len(stageSpans) != 2 {
		t.Errorf("stage spans on %d lanes, want 2", len(stageSpans))
	}
	for lane, spans := range stageSpans {
		sort.Slice(spans, func(a, b int) bool { return spans[a].StartNS < spans[b].StartNS })
		for i := 1; i < len(spans); i++ {
			if prevEnd := spans[i-1].StartNS + spans[i-1].DurNS; spans[i].StartNS < prevEnd {
				t.Errorf("lane %d: stage span starts at %d ns, before the previous one ends at %d ns", lane, spans[i].StartNS, prevEnd)
			}
		}
	}

	st := srv.Stats()
	if st.QueueWaitP99US <= 0 || st.QueueWaitP99US < st.QueueWaitP50US {
		t.Errorf("queue-wait quantiles implausible: p50=%g p99=%g", st.QueueWaitP50US, st.QueueWaitP99US)
	}
	if st.BatchP99US <= 0 || st.BatchP99US < st.BatchP50US {
		t.Errorf("batch quantiles implausible: p50=%g p99=%g", st.BatchP50US, st.BatchP99US)
	}

	// /metrics and Stats() must agree: the counters are the same atomics.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	prom := buf.String()
	for _, want := range []string{
		"# TYPE memcnn_requests_total counter",
		"# TYPE memcnn_queue_wait_us histogram",
		"# TYPE memcnn_batch_latency_us histogram",
		"# TYPE memcnn_stage_latency_us histogram",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("Prometheus exposition missing %q", want)
		}
	}

	// The exported trace must be valid Chrome trace JSON with named lanes.
	var tbuf bytes.Buffer
	if err := rec.WriteChromeTrace(&tbuf, 0); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(tbuf.Bytes(), &trace); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	lanes := map[string]bool{}
	for _, ev := range trace.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			lanes[ev.Args["name"].(string)] = true
		}
	}
	var stageLane, workerLane bool
	for name := range lanes {
		if strings.Contains(name, "stage") {
			stageLane = true
		}
		if strings.Contains(name, "server w") {
			workerLane = true
		}
	}
	if !stageLane || !workerLane {
		t.Errorf("trace lanes missing stage/worker names: %v", lanes)
	}
}

// TestServerReplicatedInstrumented is the data-parallel twin: a two-replica
// group (weighted 1 and 2, so the split is uneven) behind the batch server,
// all recording into one observer under -race, checked for per-replica spans,
// per-replica latency histograms and the replica batch counters in /metrics.
func TestServerReplicatedInstrumented(t *testing.T) {
	prog, images, _ := serverFixture(t)
	group, err := replica.NewGroup(prog, 2, replica.Config{
		Devices: []runtime.Device{runtime.CPUDevice{}, runtime.CPUDevice{}},
		Weights: []float64{1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer group.Close()
	rec := obs.NewRecorder(1 << 12)
	reg := obs.NewRegistry()
	ob := runtime.Observer{Trace: rec, Metrics: reg}
	group.Instrument(ob)
	srv, err := runtime.NewServerWith(prog, group, runtime.ServerConfig{
		MaxDelay: 5 * time.Millisecond,
		Workers:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Instrument(ob)

	const concurrent = 96
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := srv.Infer(ctx, images[i%len(images)]); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()

	replicaLanes := map[int32]int{}
	for _, sp := range rec.Snapshot() {
		if sp.Cat == obs.CatReplica {
			replicaLanes[sp.Lane]++
			if sp.Images <= 0 {
				t.Errorf("replica span reports no batch size: %+v", sp)
			}
		}
	}
	if len(replicaLanes) != group.Replicas() {
		t.Errorf("replica spans on %d lanes, want one lane per replica (%d)", len(replicaLanes), group.Replicas())
	}

	histReplicas := 0
	for series, n := range metricValues(t, reg) {
		if strings.HasPrefix(series, "memcnn_replica_latency_us_count{") {
			histReplicas++
			if n == 0 {
				t.Errorf("replica latency series %s empty", series)
			}
		}
	}
	if histReplicas != group.Replicas() {
		t.Errorf("%d replica latency series, want %d", histReplicas, group.Replicas())
	}

	// The metrics view of per-replica batches must equal ReplicaStats' view.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	prom := buf.String()
	// The group is a FaultReporter, so the fault counters must be exported.
	for _, want := range []string{"memcnn_fault_failovers_total", "memcnn_unhealthy_replicas"} {
		if !strings.Contains(prom, want) {
			t.Errorf("exposition missing %s", want)
		}
	}
	for _, rs := range group.ReplicaStats() {
		want := strings.Replace(
			`memcnn_replica_batches_total{net="TinyNet",replica="R"}`, "R",
			[]string{"0", "1"}[rs.Replica], 1)
		if !strings.Contains(prom, want) {
			t.Errorf("exposition missing %s", want)
		}
	}
}

// TestServerStatsMatchMetrics serves through a replica group (the engine
// that reports fault-tolerance counters) and asserts every counter surfaced
// in /metrics is numerically identical to ServerStats — they read the same
// atomics, so any divergence is a bug.
func TestServerStatsMatchMetrics(t *testing.T) {
	prog, images, _ := serverFixture(t)
	group, err := replica.NewGroup(prog, 2, replica.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer group.Close()
	reg := obs.NewRegistry()
	srv, err := runtime.NewServerWith(prog, group, runtime.ServerConfig{
		MaxDelay: time.Millisecond,
		Workers:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Instrument(runtime.Observer{Metrics: reg})

	ctx := context.Background()
	for i := 0; i < 8; i++ {
		if _, err := srv.Infer(ctx, images[i%len(images)]); err != nil {
			t.Fatal(err)
		}
	}
	st := srv.Stats()
	if st.Faults == nil {
		t.Fatal("replica-group server reports no fault stats")
	}
	// Every family checked below has one series: key it by name alone.
	vals := map[string]float64{}
	for series, v := range metricValues(t, reg) {
		name, _, _ := strings.Cut(series, "{")
		vals[name] = v
	}
	for name, want := range map[string]float64{
		"memcnn_requests_total":        float64(st.Requests),
		"memcnn_batches_total":         float64(st.Batches),
		"memcnn_request_errors_total":  float64(st.Errors),
		"memcnn_shed_total":            float64(st.Shed),
		"memcnn_fault_retries_total":   float64(st.Faults.Retries),
		"memcnn_fault_failovers_total": float64(st.Faults.Failovers),
		"memcnn_fault_panics_total":    float64(st.Faults.Panics),
		"memcnn_unhealthy_replicas":    float64(st.Faults.UnhealthyReplicas),
	} {
		got, ok := vals[name]
		if !ok {
			t.Errorf("metric %s not registered", name)
			continue
		}
		if got != want {
			t.Errorf("metrics %s=%g, stats say %g", name, got, want)
		}
	}
}
