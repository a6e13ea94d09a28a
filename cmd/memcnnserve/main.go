// Command memcnnserve serves batched CNN inference over HTTP with the
// planned-execution engine: the network is compiled to an op list, packed
// into a static memory arena, and fronted by the dynamic micro-batching server
// so concurrent single-image requests coalesce into planned batched
// executions.
//
// The program compiles through the per-layer selection of layout (priced on
// this host), prints each convolution's layout and GEMM workspace, and is
// verified bit-for-bit against
// Program.ReferenceForward on the serving engine before serving starts.  With
// -devices N the compiled program is cut into N pipeline stages on the host
// CPU, each a range of its ops, and the serving workers walk their batches
// through the stages of the PipelineExecutor, each batch over one arena of the
// program's own plan — results stay bit-identical to the single-device path
// while each stage reports its measured latency.
//
// With -replicas N the program is instead replicated N times on the host CPU
// (internal/runtime/replica): each batch splits evenly into per-replica
// sub-batches, each run by one executor, concurrently, and reassembles
// bit-identically.  -devices and -replicas are exclusive: a replica is never
// itself pipelined.
// -cache N puts a checksum-keyed N-entry LRU result cache with single-flight
// in front of the batching queue, so repeated inputs skip execution entirely.
//
// -slo D gives every request a latency budget: it runs under a deadline of D
// and admission control sheds requests the queue cannot serve within it
// (runtime.ErrShed) instead of letting them time out.  -chaos S wraps every
// replica device in a deterministic seeded fault schedule (transient errors
// and stalls) and permanently kills one replica partway through — a live
// demonstration of retry, failover and graceful degradation: the demo
// completes with bit-identical results on the surviving replicas and reports
// the fault counters.  /healthz reports the fleet's per-replica health and
// turns 503 once no replica is healthy.
//
// # Observability
//
// The whole serving stack is instrumented through internal/obs.  A metrics
// registry is always attached: /metrics serves it in Prometheus text format —
// per-net request/batch/queue-wait latency histograms (true p50/p95/p99, the
// same data /stats reports), per-op-kind and per-stage and per-replica
// latency, throughput, cache and fault counters.
//
// Tracing is on by default with a bounded ring of -trace-buf spans (0
// disables it; the disabled hot path is allocation-free).  /trace?last=N
// downloads the most recent N spans (all retained when omitted) as Chrome
// trace_event JSON that loads directly in chrome://tracing or Perfetto: op
// spans (layer, kernel label, layout), pipeline stage spans, per-replica
// sub-batch spans and the server's queue-wait/coalesce/batch spans, on one
// shared timebase so pipeline overlap and replica skew are visible.
//
// -pprof additionally mounts net/http/pprof under /debug/pprof/ (off by
// default: profiling endpoints are opt-in).  After a -demo run, -hold keeps
// the HTTP listener up so the demo's trace and metrics can be pulled.
//
// Usage:
//
//	memcnnserve -network LeNet -addr :8080
//	memcnnserve -network LeNet -devices 2 -demo 256
//	memcnnserve -network LeNet -replicas 4 -cache 256 -demo 512
//	memcnnserve -network TinyNet -replicas 4 -chaos 42 -demo 512   # fault-tolerance demo
//	memcnnserve -network TinyNet -demo 256      # self-driving load test
//	memcnnserve -network TinyNet -replicas 2 -demo 256 -hold  # then GET /trace
//
// Endpoints:
//
//	POST /infer   {"image":[C*H*W floats]} -> {"output":[...], "argmax":k}
//	              413 oversized body, 400 malformed or mis-sized image,
//	              429 shed (back off), 504 deadline exceeded, 503 closed or
//	              no healthy replica, 500 anything else
//	GET  /stats   batching counters (with latency quantiles)
//	GET  /metrics Prometheus text exposition
//	GET  /trace   Chrome trace_event JSON (?last=N bounds the span count)
//	GET  /plan    compiled program and memory-plan summary
//	GET  /healthz liveness probe
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"memcnn/internal/network"
	"memcnn/internal/obs"
	memruntime "memcnn/internal/runtime"
	"memcnn/internal/runtime/replica"
	"memcnn/internal/tensor"
	"memcnn/internal/workloads"
)

func main() {
	var (
		networkName = flag.String("network", "LeNet", "network to serve: TinyNet, LeNet, Cifar10, AlexNet, ZFNet or VGG")
		addr        = flag.String("addr", ":8080", "HTTP listen address")
		maxBatch    = flag.Int("batch", 0, "max requests per planned execution (default: the network batch)")
		maxDelay    = flag.Duration("delay", 2*time.Millisecond, "max time a request waits for its batch to fill")
		workers     = flag.Int("workers", 2, "concurrent batch executors")
		devices     = flag.Int("devices", 1, "pipeline the program across N stages on the host CPU (1 = no pipelining; excludes -replicas)")
		replicas    = flag.Int("replicas", 1, "replicate the program N times on the host CPU, one executor each, splitting each batch evenly (1 = no data parallelism; excludes -devices)")
		cacheSize   = flag.Int("cache", 0, "memoise per-image results keyed by input checksum in an N-entry LRU (0 = no cache)")
		slo         = flag.Duration("slo", 0, "per-request latency budget: requests run under a deadline and admission control sheds load the queue cannot serve in time (0 = no deadlines)")
		chaosSeed   = flag.Uint64("chaos", 0, "inject a seeded fault schedule into every replica device (transient errors + stalls) and permanently kill one replica partway; requires -replicas > 1 (0 = no chaos)")
		demo        = flag.Int("demo", 0, "instead of listening, fire N synthetic concurrent requests and exit")
		hold        = flag.Bool("hold", false, "after a -demo run, keep serving HTTP (so /trace and /metrics of the demo traffic can be pulled)")
		traceBuf    = flag.Int("trace-buf", obs.DefaultCapacity, "trace ring capacity in spans served at /trace (0 disables tracing; the disabled hot path is allocation-free)")
		pprofOn     = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	)
	flag.Parse()
	if *chaosSeed != 0 && *replicas <= 1 {
		fail(fmt.Errorf("memcnnserve: -chaos needs -replicas > 1 (failover needs somewhere to fail over to)"))
	}
	if *replicas > 1 && *devices > 1 {
		fail(fmt.Errorf("memcnnserve: -replicas and -devices are exclusive: a replica is one executor, so replicate with -replicas or pipeline with -devices"))
	}

	net, err := workloads.ByName(*networkName)
	if err != nil {
		fail(fmt.Errorf("memcnnserve: %w", err))
	}
	prog, err := compile(net)
	if err != nil {
		fail(err)
	}
	fmt.Printf("%s: %d layers -> %d ops over %d buffers\n", net.Name, len(net.Layers), len(prog.Ops), len(prog.Buffers))
	fmt.Printf("memory plan: %v; naive %.2f MiB (%.0f%% saved)\n", prog.Mem, mib(prog.NaiveBytes()), 100*prog.Savings())
	for _, ch := range prog.ConvChoices() {
		fmt.Printf("conv %-12s %-5s workspace %.4g MiB\n", ch.Layer, ch.Layout, mib(ch.WorkspaceBytes))
	}

	// Build the serving engine first so the startup golden check exercises
	// the exact runner traffic goes through.
	var runner memruntime.Runner
	var exec *memruntime.Executor
	var pipe *memruntime.PipelineExecutor
	var group *replica.Group
	switch {
	case *replicas > 1:
		fleet, err := replica.ParseDevices("cpu", *replicas, 1)
		if err != nil {
			fail(err)
		}
		if *chaosSeed != 0 {
			fmt.Printf("chaos: seed %d, transient+stall faults on every replica device, replica 1 dies permanently mid-run\n", *chaosSeed)
			injectChaos(fleet, *chaosSeed, int64(20*len(prog.Ops)))
		}
		group, err = replica.NewGroup(prog, *replicas, replica.Config{Devices: fleet})
		if err != nil {
			fail(err)
		}
		defer group.Close()
		fmt.Printf("replicated across %d executor(s), batch split evenly:\n", group.Replicas())
		for _, st := range group.ReplicaStats() {
			fmt.Printf("  replica %d on %s: %d of %d images/batch (weight %.3g)\n",
				st.Replica, st.Device, st.Share, prog.InputShape().N, st.Weight)
		}
		runner = group
	case *devices > 1:
		sp, err := memruntime.Shard(prog, *devices, memruntime.ShardOptions{})
		if err != nil {
			fail(err)
		}
		fmt.Printf("sharded into %d stage(s) over the program's %.2f MiB arena (one per batch in flight, at most one per stage):\n",
			len(sp.Stages), mib(prog.Mem.PeakBytes()))
		for i, st := range sp.Stages {
			fmt.Printf("  stage %d: ops [%d,%d]\n", i, st.FirstOp, st.LastOp)
		}
		pipe = memruntime.NewPipelineExecutor(sp)
		defer pipe.Close()
		runner = pipe
	default:
		exec = memruntime.NewExecutor(prog)
		runner = exec
	}

	// Instrument the engine before any traffic (including the golden check)
	// so every span lands in one recorder timebase.  The registry is always
	// attached — counters and histograms are the data /stats reads anyway —
	// while the trace ring is sized by -trace-buf (0 turns tracing off and
	// leaves the hot path allocation-free).
	reg := obs.NewRegistry()
	var rec *obs.Recorder
	if *traceBuf > 0 {
		rec = obs.NewRecorder(*traceBuf)
	}
	ob := memruntime.Observer{Trace: rec, Metrics: reg}
	switch {
	case group != nil:
		group.Instrument(ob)
	case pipe != nil:
		pipe.Instrument(ob, memruntime.LaneEngine)
	default:
		exec.Instrument(ob, memruntime.LaneEngine)
	}

	if err := goldenCheck(prog, runner); err != nil {
		fail(fmt.Errorf("memcnnserve: startup golden check: %w", err))
	}
	fmt.Println("startup golden check: serving engine output bit-equals ReferenceForward")

	srv, err := memruntime.NewServerWith(prog, runner, memruntime.ServerConfig{
		MaxBatch:     *maxBatch,
		MaxDelay:     *maxDelay,
		Workers:      *workers,
		CacheEntries: *cacheSize,
		SLO:          *slo,
	})
	if err != nil {
		fail(err)
	}
	defer srv.Close()
	srv.Instrument(ob)
	if batches, arena := srv.Buckets(); arena > 0 {
		fmt.Printf("buckets %s over one %.4f MiB arena per worker\n", strings.Trim(strings.Join(strings.Fields(fmt.Sprint(batches)), ","), "[]"), mib(arena))
	}

	if *demo > 0 {
		// Snapshot before the demo so the reported per-stage means cover the
		// demo traffic only, excluding the golden-check batch, which also
		// warms the arena.
		var before []memruntime.PipelineStageStats
		if pipe != nil {
			before = pipe.StageStats()
		}
		runDemo(srv, prog, *demo)
		if pipe != nil {
			for i, st := range pipe.StageStats() {
				d := st.Delta(before[i])
				if d.Batches == 0 {
					continue
				}
				fmt.Printf("  stage %d: %d batches, measured %.1f us/batch\n",
					d.Stage, d.Batches, d.MeasuredUS)
			}
		}
		if group != nil {
			for _, st := range group.ReplicaStats() {
				if st.Batches == 0 {
					continue
				}
				fmt.Printf("  replica %d on %s: %d sub-batches of %d images, measured %.1f us\n",
					st.Replica, st.Device, st.Batches, st.Share, st.MeasuredUS)
			}
		}
		if cs := srv.Stats().Cache; cs != nil {
			fmt.Printf("cache: %d hits, %d misses, %d evictions (%d of %d entries)\n",
				cs.Hits, cs.Misses, cs.Evictions, cs.Size, cs.Capacity)
		}
		st := srv.Stats()
		if fs := st.Faults; fs != nil {
			fmt.Printf("faults: %d retries, %d failovers, %d readmissions, %d contained panics, %d replica(s) unhealthy\n",
				fs.Retries, fs.Failovers, fs.Readmissions, fs.Panics, fs.UnhealthyReplicas)
			if group != nil {
				for i, h := range group.Health() {
					if h != memruntime.Healthy {
						fmt.Printf("  replica %d: %s\n", i, h)
					}
				}
			}
		}
		if *slo > 0 {
			fmt.Printf("slo %v: %d shed by admission control, %d expired in queue\n", *slo, st.Shed, st.Expired)
		}
		fmt.Printf("latency: queue-wait p50/p99 %.0f/%.0f us, batch p50/p99 %.0f/%.0f us (admission estimate %.0f us)\n",
			st.QueueWaitP50US, st.QueueWaitP99US, st.BatchP50US, st.BatchP99US, st.QueueWaitEstimateUS)
		if rec != nil {
			fmt.Printf("trace: %d spans recorded (ring holds %d)\n", rec.Len(), rec.Cap())
		}
		if !*hold {
			return
		}
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/infer", inferHandler(srv, prog.InputShape()))
	mux.HandleFunc("/stats", statsHandler(srv))
	mux.HandleFunc("/metrics", metricsHandler(reg))
	mux.HandleFunc("/trace", traceHandler(rec))
	mux.HandleFunc("/plan", planHandler(prog))
	mux.HandleFunc("/healthz", healthzHandler(group))
	if *pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	fmt.Printf("listening on %s (batch<=%d, delay %v, %d workers)\n",
		*addr, srv.Config().MaxBatch, srv.Config().MaxDelay, srv.Config().Workers)
	if err := http.ListenAndServe(*addr, mux); err != nil {
		fail(err)
	}
}

// metricsHandler serves the registry in Prometheus text exposition format.
func metricsHandler(reg *obs.Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	}
}

// traceHandler serves the retained spans as a Chrome trace_event JSON
// download; ?last=N bounds the export to the most recent N spans.
func traceHandler(rec *obs.Recorder) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if rec == nil {
			http.Error(w, "tracing disabled (-trace-buf 0)", http.StatusNotFound)
			return
		}
		last := 0
		if v := r.URL.Query().Get("last"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				http.Error(w, "last must be a non-negative integer", http.StatusBadRequest)
				return
			}
			last = n
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="memcnn-trace.json"`)
		_ = rec.WriteChromeTrace(w, last)
	}
}

// compile lowers the network through the compiler's selection of every
// layer's layout on this host.  The all-NCHW list it starts from only breaks
// ties: the paper optimiser's plan, priced on a GPU model, compiles to the
// same ops and buffers on each of the six networks at its own batch.
func compile(net *network.Network) (*memruntime.Program, error) {
	return memruntime.Compile(net, "selected", memruntime.Uniform(net, tensor.NCHW), memruntime.Options{ConvAlgorithms: true})
}

// goldenCheck verifies at startup that the serving engine — the exact runner
// the batching server will execute on, single-device or pipelined — bit-equals
// the program's functional reference, so a serving binary can never drift
// from the golden path silently.
func goldenCheck(prog *memruntime.Program, run memruntime.Runner) error {
	in := tensor.Random(prog.InputShape(), tensor.NCHW, 1)
	want, err := prog.ReferenceForward(in)
	if err != nil {
		return err
	}
	got := tensor.New(prog.OutputShape(), tensor.NCHW)
	if err := run.RunInto(in, got); err != nil {
		return err
	}
	wantNCHW := tensor.Convert(want, tensor.NCHW)
	for i := range wantNCHW.Data {
		if got.Data[i] != wantNCHW.Data[i] {
			return fmt.Errorf("serving engine output differs from ReferenceForward at element %d (%v vs %v)",
				i, got.Data[i], wantNCHW.Data[i])
		}
	}
	return nil
}

// runDemo fires n synthetic requests with bounded concurrency and reports
// the throughput the batching front-end achieved.
func runDemo(srv *memruntime.BatchServer, prog *memruntime.Program, n int) {
	in := prog.InputShape()
	imgShape := tensor.Shape{N: 1, C: in.C, H: in.H, W: in.W}
	images := make([]*tensor.Tensor, 8)
	for i := range images {
		images[i] = tensor.Random(imgShape, tensor.NCHW, uint64(i+1))
	}
	sem := make(chan struct{}, 4*srv.Config().MaxBatch)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var failed int
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			if _, err := srv.Infer(context.Background(), images[i%len(images)]); err != nil {
				mu.Lock()
				failed++
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	st := srv.Stats()
	fmt.Printf("demo: %d requests in %v (%.1f imgs/sec), %d failed\n",
		n, elapsed.Round(time.Millisecond), float64(n)/elapsed.Seconds(), failed)
	fmt.Printf("batching: %d executions, avg batch %.2f, largest %d, %d images of padding\n",
		st.Batches, st.AvgBatch, st.LargestBatch, st.Padded)
}

type inferRequest struct {
	Image []float32 `json:"image"`
}

type inferResponse struct {
	Output []float32 `json:"output"`
	Argmax int       `json:"argmax"`
}

// inferrer is what inferHandler needs of the batching server; the handler
// tests substitute a fake to drive every error status.
type inferrer interface {
	Infer(ctx context.Context, img *tensor.Tensor) (*tensor.Tensor, error)
}

// inferBodyLimit bounds a request body by the program's input: a JSON float
// takes at most 25 bytes plus its comma (a float64 at full precision), and
// the {"image":[...]} envelope and whitespace fit in the slack.
func inferBodyLimit(in tensor.Shape) int64 {
	return int64(in.C*in.H*in.W)*32 + 1024
}

// inferStatus maps an Infer error onto the HTTP status that tells the client
// what to do next: back off (429), give up on this deadline (504), try another
// server (503), or report a bug (500).
func inferStatus(err error) int {
	switch {
	case errors.Is(err, memruntime.ErrShed):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, memruntime.ErrServerClosed),
		errors.Is(err, replica.ErrNoHealthyReplicas), errors.Is(err, replica.ErrGroupClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func inferHandler(srv inferrer, in tensor.Shape) http.HandlerFunc {
	imgShape := tensor.Shape{N: 1, C: in.C, H: in.H, W: in.W}
	limit := inferBodyLimit(in)
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req inferRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(&req); err != nil {
			status := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				status = http.StatusRequestEntityTooLarge
			}
			http.Error(w, err.Error(), status)
			return
		}
		img, err := tensor.NewFrom(imgShape, tensor.NCHW, req.Image)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		out, err := srv.Infer(r.Context(), img)
		if err != nil {
			if r.Context().Err() != nil {
				return // the client went away: nobody reads a response
			}
			http.Error(w, err.Error(), inferStatus(err))
			return
		}
		resp := inferResponse{Output: out.Data, Argmax: 0}
		for i, v := range out.Data {
			if v > out.Data[resp.Argmax] {
				resp.Argmax = i
			}
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(resp)
	}
}

// injectChaos wraps every replica device in a seeded FaultDevice with a mild
// transient/stall schedule, and arms replica 1's device to die permanently
// after killOps ops — the demo then shows retries absorbing the transients and
// failover re-splitting the batch over the survivors.
func injectChaos(fleet []memruntime.Device, seed uint64, killOps int64) {
	for r, d := range fleet {
		cfg := memruntime.FaultConfig{
			Seed:          seed + uint64(r),
			TransientRate: 0.005,
			StallRate:     0.002,
			Stall:         500 * time.Microsecond,
		}
		if r == 1 {
			cfg.KillAfterOps = killOps
		}
		fleet[r] = memruntime.WrapFault(d, cfg)
	}
}

// healthzHandler reports liveness.  For a replicated engine it reports the
// fleet's health state machine: 200 with per-replica states while at least
// one replica is in rotation, 503 once every replica is unhealthy (the group
// can no longer serve).
func healthzHandler(group *replica.Group) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		if group == nil {
			fmt.Fprintln(w, "ok")
			return
		}
		type replicaHealth struct {
			Replica int    `json:"replica"`
			Health  string `json:"health"`
		}
		healths := group.Health()
		body := struct {
			Status   string          `json:"status"`
			Healthy  int             `json:"healthy"`
			Replicas []replicaHealth `json:"replicas"`
		}{Healthy: group.HealthyReplicas()}
		for i, h := range healths {
			body.Replicas = append(body.Replicas, replicaHealth{Replica: i, Health: h.String()})
		}
		w.Header().Set("Content-Type", "application/json")
		if body.Healthy == 0 {
			body.Status = "unavailable"
			w.WriteHeader(http.StatusServiceUnavailable)
		} else {
			body.Status = "ok"
		}
		_ = json.NewEncoder(w).Encode(body)
	}
}

func statsHandler(srv *memruntime.BatchServer) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(srv.Stats())
	}
}

func planHandler(prog *memruntime.Program) http.HandlerFunc {
	type planSummary struct {
		Network    string  `json:"network"`
		Planner    string  `json:"planner"`
		Ops        int     `json:"ops"`
		Buffers    int     `json:"buffers"`
		Transforms int     `json:"transforms"`
		PeakBytes  int64   `json:"peak_bytes"`
		NaiveBytes int64   `json:"naive_bytes"`
		Savings    float64 `json:"savings"`
	}
	transforms := 0
	for _, op := range prog.Ops {
		if op.Kind == memruntime.OpTransform {
			transforms++
		}
	}
	summary := planSummary{
		Network:    prog.Net.Name,
		Planner:    prog.PlannerName,
		Ops:        len(prog.Ops),
		Buffers:    len(prog.Buffers),
		Transforms: transforms,
		PeakBytes:  prog.Mem.PeakBytes(),
		NaiveBytes: prog.NaiveBytes(),
		Savings:    prog.Savings(),
	}
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(summary)
	}
}

func mib(b int64) float64 { return float64(b) / (1 << 20) }

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
