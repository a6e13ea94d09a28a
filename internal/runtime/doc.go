// Package runtime executes networks under the memory discipline the paper
// plans for: a network.ExecutionPlan is compiled into a flat program of ops
// with explicit buffer IDs, the buffers are packed into a single arena by a
// liveness-driven static memory plan, and the program is run by an executor
// that performs no tensor allocation in steady state.
//
// The pipeline has three stages:
//
//	compile (graph.go)    — source -> select -> lower.  A source produces
//	                        the decision list, one layout per layer (the
//	                        paper's per-layer assignment): PlanChoices from
//	                        an execution plan, Uniform for one layout, or
//	                        another program's Choices.  With
//	                        Options.ConvAlgorithms (a name that stays only
//	                        because the benchmark module sets it) one pass,
//	                        SelectChoices (select.go), re-decides every
//	                        layer's layout at once: an exact dynamic program
//	                        over the layer chain, node costs from the host price
//	                        list internal/autotune keeps (each layer's
//	                        kernel in each layout), edge costs the transform
//	                        between two layouts, ties to the list's own
//	                        layouts; the program keeps the decision record
//	                        (Program.Decisions: every candidate's price, the
//	                        winner, the runner-up and the margin).  On the
//	                        host the layout orders the GEMM product's
//	                        columns: image by image in CHWN, position by
//	                        position in NCHW, one lane loop and a one-image
//	                        unroll for workspace in both.  A convolution
//	                        runs im2col+GEMM, 9–40× faster than the direct
//	                        kernel on every network shape measured; the
//	                        direct and FFT strategies stay in the GPU model,
//	                        and direct as the functional reference.  Lowering
//	                        (Program.AddForward, the one forward builder,
//	                        training's too) binds exactly the list it is
//	                        handed: per layer an AddView (a transform op
//	                        where consecutive layouts differ, a zero-copy
//	                        reshape view at a flattening boundary), then an
//	                        AddLayer, which does the binding: the kernel's
//	                        workspace (GEMM unroll matrix, flatten staging,
//	                        softmax logits), sized by Layer.WorkspaceElems,
//	                        becomes an op-local scratch buffer, GEMM filter
//	                        banks are pre-packed once, and in-place-safe
//	                        layers (ReLU) alias their output onto their
//	                        input.
//	                        Program.Choices reads the list back; ConvChoices,
//	                        ReferenceForward and WithBatch go through it.
//	memory plan (memplan.go) — liveness analysis over buffer IDs, then best-fit
//	                        offset assignment into one arena in three root
//	                        orders, keeping the smallest; scratch buffers are
//	                        live only during their op, so the packer overlays
//	                        them with activation storage, and alias live
//	                        ranges merge into their root's.  The plan reports
//	                        its peak against its liveness lower bound and the
//	                        naive all-buffers-live total, making the paper's
//	                        memory-efficiency story measurable.
//	execute (executor.go, pool.go, device.go) — run the compiled program on
//	                        arena-backed tensor views recycled through a
//	                        free list (one arena per concurrent run, kept
//	                        across GC cycles).  One binder (NewInstance:
//	                        one arena, or one allocation per buffer as the
//	                        naive baseline) and one op interpreter
//	                        (Instance.run) serve inference and training; a
//	                        layer op is Layer.ForwardInto with the planned
//	                        scratch, so
//	                        steady-state runs allocate no tensors or scratch
//	                        slices.  Every op dispatches through a Device:
//	                        CPUDevice is the native path and FaultDevice
//	                        wraps one with a failure schedule.  Nothing on
//	                        the run path imports internal/gpusim; the
//	                        paper's GPUs price plans and figures, never the
//	                        host work.
//
// On top of the single-device executor, shard.go cuts a compiled program into
// contiguous pipeline stages (the lowered op list is a linear chain, so every
// op boundary is a valid cut): the partitioner balances a per-stage host work
// count read off the ops' shapes (a convolution's or pooling layer's FLOPs, a
// fully-connected layer's, elements otherwise), and a stage is the range of
// the program's ops between two cuts, not a program of its own.  pipeline.go
// runs each batch through the stages on its caller's goroutine: the batch
// takes one arena of the program's own plan from one pool and runs every
// stage's ops over it, hand over hand through the stage locks (it takes the
// next stage's lock before it releases the current one), so nothing is copied
// at a cut, at most one arena per stage is live, concurrent callers fill the
// stages, and results are bit-identical to the unsharded executor.
//
// The complementary execution axis is data parallelism: the replica
// sub-package clones a compiled program across N devices, one Executor each
// (shared read-only weights via Layer.WithBatch and network.WithBatch, one
// arena pool per replica), and splits every batch into per-replica sub-batches
// weighted by Config.Weights or, by default, evenly, running them
// concurrently and reassembling bit-identically.  Program.WithBatch supports
// it by lowering the rebatched network from the base program's own decision
// list instead of re-selecting by the sub-batch shape.  The axes do not
// compose: a replica is never itself pipelined.
//
// Every program reproduces Program.ReferenceForward (the functional forward on
// the same kernels) bit for bit, and the naive Network.Forward, whose
// convolutions run the float64-accumulating direct kernel, within the
// benchmark's tolerance (tensor.RelClose, 1e-5 absolute and 1e-3 relative).
// Every kernel fixes its accumulation order, so results do not depend on
// layout, batching or worker count.
//
// On top of any engine, server.go provides a dynamic micro-batching
// front-end: many concurrent single-image requests coalesce into planned
// batched executions (bounded by a maximum batch size and a maximum queueing
// delay) running on any Runner — the single-device Executor, the sharded
// PipelineExecutor or the data-parallel replica.Group, whose stages or
// replicas the server's concurrent workers keep filled.  On the program's own
// Executor a batch runs on the smallest power-of-two rebatching of the program
// that holds it, each worker binding every bucket into one arena; any other
// runner pads every batch to the program's batch.  With ServerConfig.CacheEntries a
// checksum-keyed result cache (cache.go: bounded LRU, hit/miss/eviction
// counters, single-flight on concurrent identical inputs) sits in front of
// the batching queue, so repeated inputs skip execution entirely.  That is
// how the planned engine serves traffic — see cmd/memcnnserve.
//
// # Failure model
//
// The serving path assumes fail-stop devices with three observable failure
// modes, all injectable deterministically by FaultDevice (fault.go) for
// reproducible chaos tests: transient op errors (ErrFaultInjected — the op
// did not run, a retry may succeed), latency stalls (the op runs late — the
// failure mode deadlines exist for), and permanent death (ErrDeviceDead —
// every later op fails, retries against the same device are pointless).  A
// fourth mode, panics inside a kernel or the executor, is contained by
// recover into a *PanicError (health.go) so a poisoned op crashes a request,
// never the process.
//
// # Health state machine
//
// replica.Group tracks each replica as Healthy or Unhealthy.  A failed
// sub-batch retries on its own replica up to twice, after 1 ms and then 2 ms
// (the wait doubles up to 50 ms); if the replica still fails — or its
// error is ErrDeviceDead — it is marked Unhealthy, the failover counter
// increments exactly once (CAS), and the whole batch re-runs over the
// survivors: batch shares are re-derived from the healthy units' original
// weights, so the degraded group's outputs stay bit-identical to
// the full-fleet run (every kernel fixes its accumulation order and rows are
// image-independent).  A background probe, every 25 ms, runs a
// one-image batch against each Unhealthy replica and re-admits it on
// success, re-deriving shares again.  Cancellation is not failure: a
// sub-batch that dies of its own request's context.Context never marks a
// replica Unhealthy.
//
// # Deadlines and shedding
//
// context.Context flows through the whole Runner path (RunIntoCtx on
// Executor, PipelineExecutor and replica.Group).  The batching server stamps
// each request with a ServerConfig.SLO deadline, drops already-expired
// requests when coalescing a batch (the Expired counter; the batch runs
// under the latest surviving deadline), and sheds at admission with ErrShed
// — before the request ever queues — when the estimated queue wait
// (p95 batch time x queued batches / workers, read from the server's
// always-on batch-latency histogram) already exceeds the SLO, so an
// overloaded server fails fast instead of queueing doomed work.  Shed or
// expired requests never enter the result cache; only successful batches
// feed the histogram.  Counters for all of this (Shed, Expired, and the
// group's retries/failovers/readmissions/contained panics via
// ServerStats.Faults) surface in cmd/memcnnserve's /healthz endpoint and
// its `-chaos -demo` summary.
//
// # Observability
//
// observe.go ties the stack into internal/obs.  An Observer bundles an
// optional trace recorder and an optional metrics registry; Instrument
// methods on Executor, PipelineExecutor, replica.Group and BatchServer
// attach one shared Observer before traffic starts, and the hooks are
// allocation-free — a span is a prebuilt template copied into the ring, a
// metric observation is an atomic increment — with a nil-check-only fast
// path when nothing is attached.
//
// The span taxonomy mirrors the execution layers, one trace lane per
// concurrent actor so the export reads correctly in chrome://tracing or
// Perfetto: "op" (one compiled op, carrying its kind, buffer layout and
// kernel label, Op.Alg), "run" (one whole program execution),
// "stage" (one batch crossing one pipeline stage, on per-stage lanes),
// "replica" (one sub-batch on one replica, whose executor records its run/op
// spans on the same lane), and the server-side "queue", "coalesce" and
// "batch" spans on per-worker lanes.  The metrics side registers latency
// histograms per net/op-kind plus each stage's and replica's always-on
// histogram, adopted into the registry, and every
// ServerStats counter as a function reading the same atomics Stats reads,
// so /metrics can never disagree with /stats.  cmd/memcnnserve surfaces all of it over HTTP
// (/metrics, /trace, expanded /stats, opt-in pprof) and benchmark/run.sh
// writes the same Chrome trace JSON per workload for offline runs.
//
// The train sub-package extends the same discipline to training.
// CompileTraining lowers the forward pass through Program.AddForward, out of
// place, then appends loss and backward ops — OpLossGrad (fused softmax cross-entropy gradient), OpBackward
// (data gradients via layers.BackwardLayer), OpGradFilter and OpSGD (for
// layers.TrainableLayer), and OpRecompute for checkpointed activations — and
// the memory plan covers the joint forward+backward graph: an activation
// needed by a backward op stays live until that op, unless the checkpointing
// policy drops it at the forward peak and re-derives it just in time from its
// stored predecessor.  Whether checkpointing is worth it is decided by the
// planner (the recompute plan is kept only at a strictly lower peak).  A
// training program takes its layouts from one decision list, SelectChoices
// pricing a whole step (each layer's forward and
// gradients, each transform twice: LeNet trains its convolutions and pools in
// CHWN and its fully-connected tail in NCHW); each gradient takes the layout
// of the forward buffer it mirrors, and a convolution's backward-data and
// grad-filter ops run on the batch-folded GEMM gradients (layers.Conv's
// gradient methods), with one reduction order in every layout.  Training ops dispatch
// through the same Device abstraction, bit-deterministic on CPUDevice, and
// through the same interpreter:
// train.Executor stages the batch and labels into an Instance it bound once,
// runs Executor.ExecuteOn and reads the loss, so a step is cancellable between
// ops and contains panics like an inference run; callers compile with
// train.CompileTraining and bind with train.NewExecutor.  Note the naming
// split: internal/core holds the paper's layout optimiser (a core.Policy),
// while the gradient-descent optimiser (SGD) lives here.
//
// # Verified IR contract
//
// A compiled Program is a closed intermediate representation with invariants
// the interpreter assumes, and the verify sub-package checks all of them
// statically: every buffer an op reads holds a defined value at that point
// (def-before-use over the linear op list, with alias-aware write tracking);
// alias chains are acyclic, point at reinterpret-compatible views and share
// their root's arena offset; an op may write a buffer whose root it also
// reads only when the layer declared in-place safety for exactly that shape
// and layout; every kernel that needs workspace has a scratch buffer at
// least as large as the layer's declared requirement (GEMM unroll, flatten
// staging); the memory plan's live ranges match a
// recomputed liveness analysis and the packed offsets never overlap two
// simultaneously-live buffers; training graphs recompute each checkpointed
// activation at most once, run every OpSGD after its layer's OpGradFilter
// and never touch a layer's weights after its update; and every op records
// the kernel label layers.KernelAlg gives its layer, so traces and reports
// name the kernel that runs.
// A pipeline stage needs no check of its own: it is a range of a checked
// program's ops, run over that program's arena in the program's order.
//
// Compile, CompileWithOptions, Program.WithBatch (when its base was) and
// train.CompileTraining all run the checker when Options.Verify is set (the
// caller must import memcnn/internal/runtime/verify, which registers itself
// via RegisterVerifier — the indirection keeps the IR package free of a
// dependency on its own checker), and the test suite verifies every
// compiler output unconditionally, so the executors' assumptions are
// machine-checked on each change.
//
// Relatedly, the hot kernels the programs dispatch to are annotated
// //memcnn:noalloc: the directive (checked by internal/analyzers and
// cmd/memcnnvet) forbids heap allocation in the function body — closures,
// make/new/append, fmt/errors calls, slice/map literals, string building —
// except inside return statements (error paths run at most once).  Kernels
// split their work through internal/par, whose single-worker path is
// annotated too; only its multi-worker fan-out allocates.  The annotation
// documents and enforces the steady-state-allocation-free contract this
// package's arena discipline depends on.
package runtime
