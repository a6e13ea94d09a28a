package runtime_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"memcnn/internal/gpusim"
	"memcnn/internal/obs"
	"memcnn/internal/runtime"
	"memcnn/internal/runtime/replica"
	"memcnn/internal/tensor"
	"memcnn/internal/workloads"
)

// observedFixture compiles TinyNet onto a simulated device so executor tests
// exercise the modeled-vs-measured drift channel too.
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
	exec := runtime.NewExecutorOn(prog, runtime.NewSimDevice("sim", gpusim.TitanBlack()))
	in := tensor.Random(net.InputShape(), tensor.CHWN, 1)
	out := tensor.New(prog.OutputShape(), tensor.CHWN)
	return prog, exec, in, out
}

// TestInstrumentAddsNoAllocations pins the hot-path contract from both sides:
// an executor with observability detached must allocate exactly what the
// never-instrumented executor allocates, and attaching a full observer
// (recorder + registry, including the drift counters a SimDevice enables)
// must not add a single allocation per run either — spans are value copies
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

// TestExecutorSpansAndDrift checks what an instrumented executor records: one
// run span plus one op span per compiled op per execution, op spans carrying
// kind/layout (and the conv algorithm on conv layers), latency histograms per
// op kind, and — because the device chain is a SimDevice — the per-layer
// modeled-vs-measured drift counters DriftReport extracts.
func TestExecutorSpansAndDrift(t *testing.T) {
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
			if sp.ModeledUS <= 0 && sp.Kind == "layer" {
				t.Errorf("layer op span %q has no modeled time on a SimDevice", sp.Name)
			}
		}
	}
	if byCat["op"] != runs*execOps || byCat["run"] != runs {
		t.Errorf("recorded %d op / %d run spans, want %d / %d", byCat["op"], byCat["run"], runs*execOps, runs)
	}
	if convSpans == 0 {
		t.Error("no op span carries a conv algorithm")
	}

	var opObservations uint64
	for _, s := range reg.Snapshot() {
		switch s.Name {
		case "memcnn_op_latency_us":
			opObservations += s.Hist.Count()
		case "memcnn_run_latency_us":
			if s.Hist.Count() != runs {
				t.Errorf("run latency counts %d, want %d", s.Hist.Count(), runs)
			}
			if p99 := s.Hist.Quantile(0.99); p99 <= 0 {
				t.Errorf("run p99 = %g, want > 0", p99)
			}
		}
	}
	if opObservations != uint64(runs*execOps) {
		t.Errorf("op latency histograms hold %d observations, want %d", opObservations, runs*execOps)
	}

	drift := runtime.DriftReport(reg)
	if len(drift) == 0 {
		t.Fatal("DriftReport empty on a SimDevice executor")
	}
	for _, d := range drift {
		if d.Net != "TinyNet" || d.Op == "" {
			t.Errorf("drift sample has bad identity: %+v", d)
		}
		if d.MeasuredUS <= 0 || d.ModeledUS <= 0 || d.Ratio() <= 0 {
			t.Errorf("drift sample %s/%s not populated: %+v", d.Net, d.Op, d)
		}
	}
}

// TestServerPipelinedInstrumented drives the pipelined server fixture with a
// shared observer attached (run under -race by CI: four workers and two stage
// goroutines all record into one ring) and then checks the whole span
// taxonomy landed — queue, coalesce, batch, stage — plus the serving metrics
// and the histogram-backed queue-wait stats that replaced the EWMA estimate.
func TestServerPipelinedInstrumented(t *testing.T) {
	prog, images, _ := serverFixture(t)
	sp, err := runtime.Shard(prog, 2, runtime.ShardOptions{
		Devices: []runtime.Device{
			runtime.NewSimDevice("sim0", gpusim.TitanBlack()),
			runtime.NewSimDevice("sim1", gpusim.TitanX()),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(1 << 12)
	reg := obs.NewRegistry()
	ob := runtime.Observer{Trace: rec, Metrics: reg}

	pipe := runtime.NewPipelineExecutor(sp)
	defer pipe.Close()
	pipe.Instrument(ob, runtime.LaneEngine, "")
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
// group (one of them pipeline-sharded) behind the batch server, all recording
// into one observer under -race, checked for per-replica spans, per-replica
// latency histograms and the replica batch counters in /metrics.
func TestServerReplicatedInstrumented(t *testing.T) {
	prog, images, _ := serverFixture(t)
	group, err := replica.NewGroup(prog, 2, replica.Config{
		Devices: [][]runtime.Device{
			{runtime.NewSimDevice("r0", gpusim.TitanBlack())},
			{runtime.NewSimDevice("r1.0", gpusim.TitanX()), runtime.NewSimDevice("r1.1", gpusim.TitanX())},
		},
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
	for _, s := range reg.Snapshot() {
		if s.Name == "memcnn_replica_latency_us" {
			histReplicas++
			if s.Hist.Count() == 0 {
				t.Errorf("replica latency series %s empty", s.Labels)
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
	group, err := replica.NewGroup(prog, 2, replica.Config{
		Devices: [][]runtime.Device{
			{runtime.NewSimDevice("r0", gpusim.TitanBlack())},
			{runtime.NewSimDevice("r1", gpusim.TitanX())},
		},
	})
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
	vals := map[string]float64{}
	for _, s := range reg.Snapshot() {
		vals[s.Name] = s.Value
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
