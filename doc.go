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
//
// Beyond estimating plans, internal/runtime carries them out: a planned
// network is compiled into an op list with explicit buffer IDs (layer ops,
// layout-transform ops, zero-copy reshape views), the buffers are packed into
// a single arena by a liveness-driven static memory plan, and the compiled
// program runs on recycled arena instances with no steady-state tensor
// allocation.  The compiler additionally picks each convolution's algorithm
// from three production strategies — direct, im2col+GEMM and FFT — the
// paper's per-layer choice, priced where the program runs: every program
// executes Go kernels on the host CPU, whatever GPU its plan models, so
// internal/autotune compares three estimated host times, work ÷ rate plus a
// per-call cost, from a short table of measured constants of this
// repository's kernels.  Each constant names the sub-benchmark that
// reproduces it (`go test -run '^$' -bench ConvAlgorithms -benchtime=20x .`)
// and TestSelectionRegret fails if a pick takes over twice the fastest
// kernel's time.  On this host GEMM wins 3–30× wherever there is work, direct
// keeps layers so small that one fan-out is the whole cost (one 8×8 image,
// two 3×3 filters: 4 µs against 18), and FFT is cheapest only where filters
// are about as large as the image (31×31 on 32×32: 24–36 ms against GEMM's
// 43–62; at 21×21 GEMM wins, 13–16 ms to 29–37).  No layer of the workload
// networks is near that, so here FFT is a model-domain algorithm: kept,
// bit-checked, priced on internal/gpusim for Figs. 14/15 and `netbench
// algs`, selected nowhere, and given no further host performance work.
// Layouts stay the planner's, except that an FFT layer runs in the kernel's
// NCHW and is charged both conversions.
//
// The compiler pre-packs the filter banks into packed GEMM operands and plans every
// kernel workspace (convolution unroll matrices, FFT spectrum planes,
// fully-connected flatten staging, softmax logits) into the arena as op-local
// buffers.  Layers that declare in-place safety (ReLU) alias their output
// onto their input, shrinking the arena further.
//
// The execution stack is device-abstracted: ops run through a runtime.Device
// — the native CPU, or a simulated GPU that computes real results while
// pricing every op on the internal/gpusim hardware model — and a compiled
// program scales along two axes.  Model parallelism: the program is sharded
// into contiguous pipeline stages across several devices (FLOPs-balanced
// cuts, explicit cross-device transfers, one arena plan per stage), and the
// pipelined executor streams batches through the stages bit-identically to
// the single-device run.  Data parallelism: the
// runtime/replica scheduler clones the program across N devices (shared
// read-only weights, per-replica arena pools) and splits every batch into
// sub-batches weighted by modeled — or, on the CPU, probed — per-device
// throughput, so heterogeneous TitanBlack+TitanX fleets balance wall-clock;
// replicas may themselves be pipeline-sharded, composing both axes, and the
// modeled batch scatter divides interconnect bandwidth among the overlapping
// transfers.  A dynamic micro-batching server coalesces concurrent
// single-image requests into planned batched executions over any engine,
// optionally behind a checksum-keyed LRU result cache with single-flight
// (repeated inputs skip execution entirely); cmd/memcnnserve serves it over
// HTTP (it always serves the algorithm-selected program and verifies the
// serving engine against its functional reference at startup; `-devices N`
// pipelines across simulated devices,
// `-replicas N`/`-replica-devices`/`-cache N` switch on replication and the
// cache; `-demo` prints the per-stage and per-replica breakdowns and the
// cache counters) and `netbench programs` is the static report: every
// network's op and buffer counts, arena footprint, per-layer (layout,
// algorithm) choice and planned training footprints, nothing executed.
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
// text format from the same atomics the stats endpoints read.  On simulated
// fleets the trace carries per-op modeled-vs-measured drift, keeping the
// gpusim cost model honest layer by layer.  `memcnnserve` exposes /metrics,
// /trace and an expanded /stats (plus opt-in pprof); benchmark/run.sh writes
// the same trace per workload for offline runs and reports the measured
// latency quantiles next to the throughput.
//
// Training runs under the same memory discipline (runtime/train): the
// compiler lowers a softmax-terminated network into one op list covering the
// forward pass, softmax cross-entropy loss, backward data/filter passes and
// the SGD update, and the static memory plan spans that joint graph —
// forward activations stay live only until their last backward consumer, and
// recompute-vs-store checkpointing is a planner decision (cheap activations
// are dropped at the forward peak and recomputed just in time during the
// backward pass, priced on the gpusim model, and kept only when the plan's
// peak actually shrinks).  Backward kernels are allocation-free, with a
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
