// Package memcnn is a Go reproduction of "Optimizing Memory Efficiency for
// Deep Convolutional Neural Networks on GPUs" (Li, Yang, Feng, Chakradhar,
// Zhou — SC 2016).
//
// The library models the memory behaviour of GPU CNN layers (data layouts,
// coalescing, redundant off-chip traffic, kernel-launch round trips) and
// implements the paper's optimisations: heuristic per-layer data-layout
// selection, a fast 4-D layout transformation, register-reuse pooling and a
// fused, inner-loop-parallel softmax, integrated into a network planner that
// is compared against emulations of cuda-convnet, Caffe and the cuDNN modes.
// That model domain is one package, internal/gpusim: the two GPUs, every
// kernel's cost model and gpusim.LayerCost, the per-layer price the planners
// and the figures ask.  The host kernels, layers and run path do not import
// it.
//
// Beyond estimating plans, internal/runtime carries them out: a planned
// network is compiled into an op list with explicit buffer IDs (layer ops,
// layout-transform ops, zero-copy reshape views), the buffers are packed into
// a single arena by a liveness-driven static memory plan, and the compiled
// program runs on recycled arena instances with no steady-state tensor
// allocation.  The compiler picks each layer's layout, the paper's per-layer
// choice, priced where the program runs: every program executes Go kernels on
// the host CPU, whatever GPU its plan models, so internal/autotune compares
// estimated host times, work ÷ rate plus a per-call cost, from a short table
// of measured constants of this repository's kernels.  Each constant names the
// sub-benchmark that reproduces it (`go test -run '^$' -bench ConvAlgorithms
// -benchtime=20x .`).  Every convolution runs im2col+GEMM: on this host it
// runs 9–40× faster than cuda-convnet's direct strategy on every convolution
// of the five workload networks, and TestSelectionRegret fails if it takes
// over twice the direct kernel's time on any shape the price list cites.  The
// direct kernel stays as the functional reference (Network.Forward), which
// accumulates in float64 and shares no code with the GEMM core.  The paper's
// third strategy, FFT, lost to the fastest kernel on every convolution of the
// five workload networks, at batch 1 and at the benchmark's batches, and on
// the one shape it was once picked for (31×31 filters on 32×32 images).  So
// direct and FFT are model-domain algorithms here: priced on internal/gpusim
// for Figs. 5, 14 and 15, and compiled nowhere.
//
// The compiler pre-packs the filter banks into packed GEMM operands and plans every
// kernel workspace (convolution unroll matrices, fully-connected flatten
// staging, softmax logits) into the arena as op-local buffers.  Layers that declare in-place safety (ReLU) alias their output
// onto their input, shrinking the arena further.
//
// The execution stack is device-abstracted: ops run through a runtime.Device,
// which is the host CPU (optionally behind a fault schedule); the paper's GPUs
// stay in the model domain and divide no host work.  A compiled program
// scales along two axes.  Model parallelism: the program is sharded into
// contiguous pipeline stages (cuts balanced on a host work count read off the
// ops' shapes; a stage is a range of the program's ops), and the pipelined
// executor walks each batch through the stages on its caller's goroutine, one
// stage at a time, over one arena of the program's own plan, bit-identically
// to the single-device run.
// Data parallelism: the runtime/replica scheduler clones the program across N
// devices, one executor each (shared read-only weights, per-replica arena
// pools), and splits every batch into sub-batches weighted by the caller's
// weights or, by default, evenly.  The two axes do not compose: a replica is
// never itself pipelined.  A dynamic
// micro-batching server coalesces concurrent single-image requests into
// planned batched executions over any engine, optionally behind a
// checksum-keyed LRU result cache with single-flight (repeated inputs skip
// execution entirely); cmd/memcnnserve serves it over HTTP (it always serves
// the layout-selected program and verifies the serving engine against its
// functional reference at startup; `-devices N` pipelines across N stages,
// `-replicas N` replicates instead (the two are exclusive), `-cache N` switches
// on the cache; `-demo` prints
// the per-stage and per-replica breakdowns and the cache counters) and
// `netbench programs` is the static report: every
// network's op and buffer counts, arena footprint, per-convolution layout and
// workspace and planned training footprints, nothing executed.
//
// The serving stack is fault-tolerant end to end.  runtime.FaultDevice wraps
// any Device with a deterministic seeded failure schedule — transient op
// errors, latency stalls, injected panics, permanent device death — so every
// failure mode is reproducible in CI.  replica.Group runs a health state
// machine over its replicas: transient failures retry with capped exponential
// backoff, repeated failures mark a replica unhealthy and fail the batch over
// to the survivors (batch shares are re-derived from the healthy units'
// original throughput weights, so degraded results stay bit-identical to the
// full-fleet run), and a background probe re-admits recovered replicas.
// Requests carry context.Context through the whole Runner path; the batching
// server enforces a per-request SLO deadline and sheds doomed work at
// admission (distinct ErrShed) when the queue already exceeds the SLO
// horizon, panics anywhere in an engine are contained into errors, and
// retry/failover/shed/unhealthy counters surface in ServerStats,
// `memcnnserve`'s /healthz endpoint and demo summary (`-slo`, and `-chaos`
// to inject a seeded fault schedule).  The seeded soaks are tests
// (TestChaosSoakReplicaDeath and the server-level one), which CI runs under
// the race detector; the un-faulted replica golden run asserts zero retries
// and failovers, and the benchmark's serve-cifar8 `ok_frac` that nothing is
// shed.
//
// The running stack is observable end to end (internal/obs): a shared
// ring-buffered trace recorder collects op, run, pipeline-stage, replica,
// queue-wait, coalesce and batch spans from every execution layer —
// allocation-free when enabled, a nil check when not — and exports them as
// Chrome trace_event JSON loadable in chrome://tracing or Perfetto, while a
// metrics registry keeps per-net/per-op-kind/per-stage/per-replica latency
// histograms (true p50/p95/p99, which also drive the server's SLO admission
// estimate) and exports every serving, cache and fault counter in Prometheus
// text format from the same atomics the stats endpoints read.  `memcnnserve`
// exposes /metrics, /trace and an expanded /stats (plus opt-in pprof);
// benchmark/run.sh writes the same trace per workload for offline runs and
// reports the measured latency quantiles next to the throughput.
//
// Training runs under the same memory discipline (runtime/train): the
// compiler lowers a softmax-terminated network into one op list covering the
// forward pass, softmax cross-entropy loss, backward data/filter passes and
// the SGD update, and the static memory plan spans that joint graph —
// forward activations stay live only until their last backward consumer, and
// recompute-vs-store checkpointing is a planner decision (cheap activations
// are dropped at the forward peak and recomputed just in time during the
// backward pass, and the recompute plan is kept only when its arena peak is
// the smaller one).  Backward kernels are allocation-free, with a
// fixed accumulation order, so a planned training step is
// bit-identical to the naive per-buffer executor across worker counts;
// `netbench programs` reports planned-vs-naive training footprints with and
// without checkpointing, and the benchmark's train-lenet16 workload measures
// the step latency and bounds the (deterministic) planned footprint.
//
// A static verification layer guards the whole compiled surface.
// internal/runtime/verify checks every compiled program — inference,
// training and per-stage sharded alike — against the IR contract the
// executors rely on: def-before-use dataflow, sound alias chains, in-place
// update hazards, kernel workspace sufficiency, memory-plan/liveness
// consistency and accumulation-order determinism, each violation reported
// as a diagnostic naming the offending op and buffer.  Tests run the
// checker over every compiler output unconditionally, and
// runtime.Options.Verify / train.Options.Verify make compilation itself
// fail-closed.  Alongside the IR checker, internal/analyzers implements
// repository-specific source lint passes — noalloc (functions annotated
// //memcnn:noalloc must not heap-allocate), ctxflow (call sites must not
// drop an available context.Context) and atomicalign (64-bit atomics on
// alignment-safe, never mixed-access struct fields) — which
// cmd/memcnnvet runs as a build-failing CI step next to go vet.
//
// The public entry points live under internal/ because the module is a
// self-contained reproduction rather than an importable SDK; the three cmd/
// tools and the examples/ programs show every supported workflow, and
// bench_test.go regenerates each table and figure of the paper's evaluation.  See
// internal/runtime/doc.go for the architecture of the execution stack,
// ROADMAP.md for the measured state and the open items, CHANGES.md for what
// each PR added, benchmark/README.md for the host-measured benchmark, and
// internal/bench (printed by cmd/netbench, one view per figure) for the
// regenerated tables and figures.
package memcnn
