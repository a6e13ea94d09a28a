package runtime

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"memcnn/internal/obs"
	"memcnn/internal/tensor"
)

// ErrServerClosed is returned for requests submitted to (or stranded in) a
// server that has been closed.
var ErrServerClosed = errors.New("runtime: server closed")

// ErrShed is returned by admission control: the queue is deep enough that the
// request's estimated wait would exceed the SLO horizon, so the server sheds
// it immediately instead of letting it time out in the queue — the caller
// learns in microseconds, not after a wasted deadline, and the queue never
// builds a backlog of requests that are already doomed.
var ErrShed = errors.New("runtime: request shed: queue wait would exceed the SLO horizon")

// ServerConfig tunes the micro-batching front-end.
type ServerConfig struct {
	// MaxBatch is the largest number of requests coalesced into one planned
	// execution.  It must not exceed the compiled network's batch size, which
	// is also the default.
	MaxBatch int
	// MaxDelay bounds how long a request waits for the batch to fill before
	// the server runs the partial batch it has.  Default 2ms.
	MaxDelay time.Duration
	// Workers is the number of concurrent batch executors.  Default 2.
	Workers int
	// CacheEntries bounds the serving-side result cache: per-image outputs
	// memoised by input checksum (LRU, single-flight), so repeated inputs
	// skip execution entirely.  0 (the default) disables the cache.
	CacheEntries int
	// SLO, when positive, is the per-request latency budget: every request
	// gets a deadline of SLO from admission (unless its own context expires
	// sooner), requests whose deadline passes while queued are failed with
	// context.DeadlineExceeded without occupying a batch slot, and admission
	// control sheds new requests with ErrShed when the queue is deep enough
	// that their estimated wait (p95 measured full-batch time x batches
	// ahead) would already exceed the budget.  0 (the default) disables
	// deadlines and shedding.
	SLO time.Duration
}

// withDefaults replaces unset (or non-positive) fields with their defaults.
func (c ServerConfig) withDefaults(batch int) ServerConfig {
	if c.MaxBatch <= 0 {
		c.MaxBatch = batch
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 2 * time.Millisecond
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	return c
}

// ServerStats is a snapshot of the server's batching behaviour.
type ServerStats struct {
	Requests     uint64  // single-image requests completed
	Batches      uint64  // planned executions performed
	Errors       uint64  // requests that failed
	LargestBatch uint64  // largest coalesced batch observed
	AvgBatch     float64 // mean requests per execution
	Padded       uint64  // images computed as padding, summed over batches
	// Shed counts requests rejected by admission control (ErrShed) and
	// Expired requests whose deadline passed while they waited in the queue;
	// both are zero unless ServerConfig.SLO is set.  Neither is included in
	// Requests or Errors — they never reached an execution.
	Shed    uint64
	Expired uint64
	// Queue-wait and batch-execution latency quantiles, in microseconds, from
	// the server's always-on histograms (bucketed: values are bucket upper
	// bounds, relative error <= ~19%).  QueueWaitEstimateUS is the current
	// admission-control wait estimate — p95 full-batch time x batches queued
	// ahead / workers — which the measured QueueWaitP99US keeps honest.
	QueueWaitEstimateUS float64
	QueueWaitP50US      float64
	QueueWaitP99US      float64
	BatchP50US          float64
	BatchP99US          float64
	// Cache holds the result-cache counters when CacheEntries > 0; requests
	// served from the cache (or by joining an in-flight identical request)
	// never reach the batching queue, so they appear here and not in
	// Requests.
	Cache *CacheStats `json:",omitempty"`
	// Faults holds the serving engine's fault-tolerance counters when the
	// runner reports them (replica.Group: retries, failovers, re-admissions,
	// replicas currently unhealthy).
	Faults *FaultStats `json:",omitempty"`
}

type response struct {
	out *tensor.Tensor
	err error
}

type request struct {
	ctx  context.Context
	img  *tensor.Tensor
	resp chan response
	enq  time.Time // when the request entered the queue
}

// Runner executes a compiled program on one input batch.  The single-device
// Executor, the sharded PipelineExecutor and the data-parallel replica.Group
// all implement it, which is how the batching server serves any engine.
// RunIntoCtx is the context-aware path: cancellation and deadlines propagate
// into the engine (between ops, between pipeline stages, into replica
// sub-batches) instead of stopping at the server queue.  Either way dst is
// only valid when the returned error is nil, and the engine must not write
// dst after returning.
type Runner interface {
	RunInto(in, dst *tensor.Tensor) error
	RunIntoCtx(ctx context.Context, in, dst *tensor.Tensor) error
}

// NewServer starts the workers for a compiled program on the single-device
// executor.
func NewServer(prog *Program, cfg ServerConfig) (*BatchServer, error) {
	return NewServerWith(prog, NewExecutor(prog), cfg)
}

// NewServerWith starts the workers for a compiled program on an explicit
// runner — e.g. a PipelineExecutor, whose stages the concurrent workers keep
// filled by walking them with a batch each.  The runner's lifetime is
// the caller's: Close stops the workers but not the runner.
// On the program's own *Executor a batch runs on the smallest bucket that
// holds it (bucketPrograms), over one arena per worker; any other runner gets
// every batch padded to the program's batch.
func NewServerWith(prog *Program, run Runner, cfg ServerConfig) (*BatchServer, error) {
	in := prog.InputShape()
	cfg = cfg.withDefaults(in.N)
	if cfg.MaxBatch > in.N {
		return nil, fmt.Errorf("runtime: MaxBatch %d exceeds the network batch %d", cfg.MaxBatch, in.N)
	}
	s := &BatchServer{
		prog:    prog,
		exec:    run,
		buckets: []*Program{prog},
		cfg:     cfg,
		// The queue holds two full batches per worker: one being coalesced
		// while the previous one executes.
		reqs:      make(chan *request, 2*cfg.MaxBatch*cfg.Workers),
		stop:      make(chan struct{}),
		queueWait: obs.NewHistogram(),
		batchLat:  obs.NewHistogram(),
		fullLat:   obs.NewHistogram(),
		reqLat:    obs.NewHistogram(),
	}
	if cfg.CacheEntries > 0 {
		cache, err := NewResultCache(cfg.CacheEntries)
		if err != nil {
			return nil, err
		}
		s.cache = cache
	}
	if e, ok := run.(*Executor); ok && e.prog == prog {
		buckets, err := bucketPrograms(prog, cfg.MaxBatch)
		if err != nil {
			return nil, err
		}
		s.buckets, s.direct = buckets, e
	}
	for i := 0; i < cfg.Workers; i++ {
		if err := s.addWorker(); err != nil {
			return nil, err
		}
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker(i)
	}
	return s, nil
}

// BatchServer is a concurrent batched-inference front-end over a compiled
// program: single-image requests are queued, coalesced into batches of up to
// MaxBatch images (waiting at most MaxDelay), padded to the smallest bucket
// that holds them (the network's batch unless the runner is the program's
// own Executor; see NewServerWith) and run.  Every layer processes images
// independently, so padded slots cannot perturb real results.  An optional
// checksum-keyed result cache sits in front of the queue (ServerConfig.
// CacheEntries), short-circuiting repeated and concurrent-identical inputs.
// With ServerConfig.SLO the server enforces per-request deadlines and sheds
// load it cannot serve in time (see ServerConfig.SLO and ErrShed).
type BatchServer struct {
	prog  *Program
	exec  Runner
	cfg   ServerConfig
	cache *ResultCache // nil unless CacheEntries > 0

	// buckets run batches, smallest first, the last full ones; direct is the
	// executor they run on, nil when exec pads every batch to prog alone.
	buckets []*Program
	direct  *Executor
	workers []*workerState

	reqs chan *request
	stop chan struct{}
	wg   sync.WaitGroup

	mu     sync.RWMutex
	closed bool

	requests     atomic.Uint64
	batches      atomic.Uint64
	errors       atomic.Uint64
	largestBatch atomic.Uint64
	padded       atomic.Uint64
	shed         atomic.Uint64
	expired      atomic.Uint64

	// The server's always-on latency histograms: per-request queue wait,
	// successful batch execution time, the same for batches run on the last
	// bucket only (feeding the admission-control wait estimate) and
	// end-to-end request latency.  Instrument surfaces all but fullLat in a
	// metrics registry; Stats reads quantiles from them either way.
	queueWait *obs.Histogram
	batchLat  *obs.Histogram
	fullLat   *obs.Histogram
	reqLat    *obs.Histogram
	// trace, when set by Instrument, receives queue-wait/coalesce/batch spans
	// on per-worker lanes.
	trace atomic.Pointer[obs.Recorder]
}

// Config returns the effective (defaulted) configuration.
func (s *BatchServer) Config() ServerConfig { return s.cfg }

// Buckets returns the batch sizes batches run on, smallest first, and the
// bytes of each worker's one arena (0 when the runner pads every batch).
func (s *BatchServer) Buckets() (batches []int, arenaBytes int64) {
	for _, p := range s.buckets {
		batches = append(batches, p.InputShape().N)
	}
	return batches, 4 * int64(len(s.workers[0].arena))
}

// Infer submits one image — shape {1,C,H,W} for a network consuming
// {B,C,H,W} — and blocks until its result, a {1,classes…} tensor in NCHW
// layout, is ready or the context is cancelled.  With CacheEntries > 0 the
// result cache is consulted first: a repeated input returns its memoised
// output without execution, and concurrent identical inputs share one
// execution (single-flight).  With SLO > 0 the request runs under a deadline
// of SLO from now (or the context's own deadline, whichever is sooner) and
// may be shed with ErrShed before queueing.
func (s *BatchServer) Infer(ctx context.Context, img *tensor.Tensor) (*tensor.Tensor, error) {
	in := s.prog.InputShape()
	want := tensor.Shape{N: 1, C: in.C, H: in.H, W: in.W}
	if img.Shape != want {
		return nil, fmt.Errorf("runtime: request shape %v, want %v", img.Shape, want)
	}
	if s.cfg.SLO > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, time.Now().Add(s.cfg.SLO))
		defer cancel()
	}
	if s.cache == nil {
		return s.submit(ctx, img)
	}
	return s.cache.Do(ctx, ImageChecksum(img), func() (*tensor.Tensor, error) {
		return s.submit(ctx, img)
	})
}

// admissionWait estimates how long a request entering the queue now will wait
// before its batch starts: the batches already queued ahead of it, divided
// over the workers, each taking the p95 time of a batch run on the last
// bucket, since a batch queued ahead is full (lone requests on small buckets
// must not pull the estimate down).  Zero until a full batch has been
// measured.  A high quantile keeps the estimate conservative.
func (s *BatchServer) admissionWait() time.Duration {
	per := s.fullLat.Quantile(0.95) // microseconds
	if per <= 0 {
		return 0
	}
	batchesAhead := len(s.reqs) / s.cfg.MaxBatch
	return time.Duration(per * float64(batchesAhead) / float64(s.cfg.Workers) * 1e3)
}

// submit queues one validated image for batching and waits for its result.
func (s *BatchServer) submit(ctx context.Context, img *tensor.Tensor) (*tensor.Tensor, error) {
	if s.cfg.SLO > 0 && s.admissionWait() > s.cfg.SLO {
		s.shed.Add(1)
		return nil, ErrShed
	}
	r := &request{ctx: ctx, img: img, resp: make(chan response, 1), enq: time.Now()}
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, ErrServerClosed
	}
	select {
	case s.reqs <- r:
		s.mu.RUnlock()
	case <-ctx.Done():
		s.mu.RUnlock()
		return nil, ctx.Err()
	}
	select {
	case resp := <-r.resp:
		s.reqLat.Observe(float64(time.Since(r.enq)) / 1e3)
		return resp.out, resp.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Stats returns a snapshot of the batching counters.
func (s *BatchServer) Stats() ServerStats {
	st := ServerStats{
		Requests:            s.requests.Load(),
		Batches:             s.batches.Load(),
		Errors:              s.errors.Load(),
		LargestBatch:        s.largestBatch.Load(),
		Padded:              s.padded.Load(),
		Shed:                s.shed.Load(),
		Expired:             s.expired.Load(),
		QueueWaitEstimateUS: float64(s.admissionWait()) / 1e3,
		QueueWaitP50US:      s.queueWait.Quantile(0.50),
		QueueWaitP99US:      s.queueWait.Quantile(0.99),
		BatchP50US:          s.batchLat.Quantile(0.50),
		BatchP99US:          s.batchLat.Quantile(0.99),
	}
	if st.Batches > 0 {
		st.AvgBatch = float64(st.Requests) / float64(st.Batches)
	}
	if s.cache != nil {
		cs := s.cache.Stats()
		st.Cache = &cs
	}
	if fr, ok := s.exec.(FaultReporter); ok {
		fs := fr.FaultStats()
		st.Faults = &fs
	}
	return st
}

// Instrument attaches an observer to the server.  With a trace recorder,
// every coalesced batch records a queue-wait span (admission of its oldest
// request to dispatch), a coalesce span (first arrival at the worker to
// batch assembly) and a batch span (planned execution), on per-worker lanes.
// With a metrics registry, the server's always-on histograms (queue wait,
// batch latency, request latency) are adopted into it and every ServerStats
// counter — including the cache and fault-tolerance counters — is exported
// as a counter/gauge function reading the same atomics Stats reads, so
// /metrics and /stats can never disagree.  Call before serving traffic; a
// zero Observer detaches the tracer (metrics registrations persist).
func (s *BatchServer) Instrument(ob Observer) {
	if ob.Trace != nil {
		for i := 0; i < s.cfg.Workers; i++ {
			ob.Trace.SetLane(laneServerBase+int32(i), fmt.Sprintf("server w%d", i))
		}
	}
	s.trace.Store(ob.Trace)
	reg := ob.Metrics
	if reg == nil {
		return
	}
	netL := obs.L("net", s.prog.Net.Name)
	reg.AdoptHistogram("memcnn_queue_wait_us",
		"Time requests spent in the batching queue before dispatch.", s.queueWait, netL)
	reg.AdoptHistogram("memcnn_batch_latency_us",
		"Successful coalesced-batch execution latency (feeds admission control).", s.batchLat, netL)
	reg.AdoptHistogram("memcnn_request_latency_us",
		"End-to-end single-image request latency through the batching server.", s.reqLat, netL)
	reg.CounterFunc("memcnn_requests_total",
		"Single-image requests completed (success or error).",
		func() float64 { return float64(s.requests.Load()) }, netL)
	reg.CounterFunc("memcnn_padded_images_total",
		"Images computed as padding: bucket batch minus requests, summed over batches.",
		func() float64 { return float64(s.padded.Load()) }, netL)
	reg.CounterFunc("memcnn_batches_total",
		"Planned batch executions performed.",
		func() float64 { return float64(s.batches.Load()) }, netL)
	reg.CounterFunc("memcnn_request_errors_total",
		"Requests that failed inside an execution.",
		func() float64 { return float64(s.errors.Load()) }, netL)
	reg.CounterFunc("memcnn_shed_total",
		"Requests rejected by SLO admission control (ErrShed).",
		func() float64 { return float64(s.shed.Load()) }, netL)
	reg.CounterFunc("memcnn_expired_total",
		"Requests whose deadline passed while queued.",
		func() float64 { return float64(s.expired.Load()) }, netL)
	if s.cache != nil {
		reg.CounterFunc("memcnn_cache_hits_total",
			"Result-cache hits (including single-flight joins).",
			func() float64 { return float64(s.cache.Stats().Hits) }, netL)
		reg.CounterFunc("memcnn_cache_misses_total",
			"Result-cache misses.",
			func() float64 { return float64(s.cache.Stats().Misses) }, netL)
		reg.CounterFunc("memcnn_cache_evictions_total",
			"Result-cache LRU evictions.",
			func() float64 { return float64(s.cache.Stats().Evictions) }, netL)
	}
	if fr, ok := s.exec.(FaultReporter); ok {
		reg.CounterFunc("memcnn_fault_retries_total",
			"Sub-batch re-executions after transient failures.",
			func() float64 { return float64(fr.FaultStats().Retries) }, netL)
		reg.CounterFunc("memcnn_fault_failovers_total",
			"Replicas marked unhealthy after exhausting retries.",
			func() float64 { return float64(fr.FaultStats().Failovers) }, netL)
		reg.CounterFunc("memcnn_fault_readmissions_total",
			"Unhealthy replicas restored by a successful probe.",
			func() float64 { return float64(fr.FaultStats().Readmissions) }, netL)
		reg.CounterFunc("memcnn_fault_panics_total",
			"Panics recovered into errors inside the engine.",
			func() float64 { return float64(fr.FaultStats().Panics) }, netL)
		reg.GaugeFunc("memcnn_unhealthy_replicas",
			"Replicas currently out of rotation.",
			func() float64 { return float64(fr.FaultStats().UnhealthyReplicas) }, netL)
	}
}

// Close stops the workers and fails any queued requests with
// ErrServerClosed.  It is idempotent.
func (s *BatchServer) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stop)
	s.wg.Wait()
	for {
		select {
		case r := <-s.reqs:
			r.resp <- response{err: ErrServerClosed}
		default:
			return
		}
	}
}

// worker coalesces and executes batches until the server closes.  A panic
// escaping the runner (contained panics surface as *PanicError already) is
// recovered here as a last line of defence: it fails the batch, never the
// worker or the process.
func (s *BatchServer) worker(id int) {
	defer s.wg.Done()
	lane := laneServerBase + int32(id)
	w := s.workers[id]
	batch := make([]*request, 0, s.cfg.MaxBatch)
	timer := time.NewTimer(time.Hour)
	stopTimer(timer)
	for {
		select {
		case <-s.stop:
			return
		case r := <-s.reqs:
			rec := s.trace.Load()
			var coalesceT0 int64
			if rec != nil {
				coalesceT0 = rec.Now()
			}
			batch = append(batch[:0], r)
			if s.cfg.MaxBatch > 1 {
				timer.Reset(s.cfg.MaxDelay)
			collect:
				for len(batch) < s.cfg.MaxBatch {
					select {
					case r2 := <-s.reqs:
						batch = append(batch, r2)
					case <-timer.C:
						break collect
					case <-s.stop:
						// Serve what we already accepted, then exit above.
						break collect
					}
				}
				stopTimer(timer)
			}
			// Drop requests whose context died while they queued: their
			// callers are already gone, so spending a batch slot on them
			// would only delay live requests.
			live := batch[:0]
			for _, r := range batch {
				if err := r.ctx.Err(); err != nil {
					s.expired.Add(1)
					r.resp <- response{err: err}
					continue
				}
				live = append(live, r)
			}
			if len(live) > 0 {
				// Record each request's queue wait; the span covers the
				// oldest request's wait so the trace shows how long the
				// batch's slowest admission sat before dispatch.
				now := time.Now()
				var oldest time.Duration
				for _, r := range live {
					w := now.Sub(r.enq)
					if w > oldest {
						oldest = w
					}
					s.queueWait.Observe(float64(w) / 1e3)
				}
				if rec != nil {
					t1 := rec.Now()
					rec.Record(obs.Span{
						Name: "queue wait", Cat: obs.CatQueue, Lane: lane,
						StartNS: t1 - int64(oldest), DurNS: int64(oldest),
						Images: len(live),
					})
					rec.Record(obs.Span{
						Name: "coalesce", Cat: obs.CatCoalesce, Lane: lane,
						StartNS: coalesceT0, DurNS: t1 - coalesceT0,
						Images: len(live),
					})
				}
				s.serveBatch(lane, w, live)
			}
		}
	}
}

// stopTimer stops a timer and drains a pending fire so Reset is safe.
func stopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}

// batchContext derives the context one coalesced execution runs under: no
// deadline when any request is deadline-free, otherwise the latest deadline
// across the batch — the execution serves every request in it, so it may
// only be abandoned once all of them are past saving.
func batchContext(batch []*request) (context.Context, context.CancelFunc) {
	var latest time.Time
	for _, r := range batch {
		d, ok := r.ctx.Deadline()
		if !ok {
			return context.Background(), func() {}
		}
		if d.After(latest) {
			latest = d
		}
	}
	return context.WithDeadline(context.Background(), latest)
}

// bucketPrograms returns what a batch of up to maxBatch images runs on,
// smallest first: prog rebatched (same layouts and weights) to 1,
// 2, 4, … until one holds maxBatch, or prog once a power reaches its batch.
func bucketPrograms(prog *Program, maxBatch int) ([]*Program, error) {
	var buckets []*Program
	for b := 1; ; b *= 2 {
		if b >= prog.InputShape().N {
			return append(buckets, prog), nil
		}
		p, err := prog.WithBatch(b)
		if err != nil {
			return nil, err
		}
		if buckets = append(buckets, p); b >= maxBatch {
			return buckets, nil
		}
	}
}

// workerState is one worker's per-bucket NCHW staging views and instances,
// the instances (when direct is set) all bound into one max-bucket arena.
type workerState struct {
	in, out []*tensor.Tensor
	arena   []float32
	insts   []*Instance
	obsSrc  *execObs   // the executor instrumentation obs was built from
	obs     []*execObs // per bucket, built on first use
}

func (s *BatchServer) addWorker() error {
	top := s.buckets[len(s.buckets)-1]
	inAll := tensor.New(top.InputShape(), tensor.NCHW)
	outAll := tensor.New(top.OutputShape(), tensor.NCHW)
	w := &workerState{obs: make([]*execObs, len(s.buckets))}
	if s.direct != nil {
		elems := 0
		for _, p := range s.buckets {
			elems = max(elems, p.Mem.ArenaElems)
		}
		w.arena = make([]float32, elems)
	}
	for _, p := range s.buckets {
		in, out := p.InputShape(), p.OutputShape()
		w.in = append(w.in, &tensor.Tensor{Shape: in, Layout: tensor.NCHW, Data: inAll.Data[:in.Elems()]})
		w.out = append(w.out, &tensor.Tensor{Shape: out, Layout: tensor.NCHW, Data: outAll.Data[:out.Elems()]})
		if w.arena != nil {
			inst, err := bindInstance(p, w.arena)
			if err != nil {
				return err
			}
			w.insts = append(w.insts, inst)
		}
	}
	s.workers = append(s.workers, w)
	return nil
}

// run executes bucket k over the worker's staging views: through the runner,
// or over its instance on the executor's device, with the executor's observer.
func (s *BatchServer) run(ctx context.Context, w *workerState, k int) error {
	if w.insts == nil {
		return s.exec.RunIntoCtx(ctx, w.in[k], w.out[k])
	}
	inst := w.insts[k]
	if eo := s.direct.obs.Load(); eo != w.obsSrc {
		w.obsSrc = eo
		clear(w.obs)
	}
	if w.obsSrc != nil && w.obs[k] == nil {
		w.obs[k] = w.obsSrc.forProgram(inst.prog)
	}
	return inst.run(ctx, s.direct.dev, w.obs[k], 0, len(inst.prog.Ops)-1, w.in[k], w.out[k])
}

// serveBatch packs the requests into the smallest bucket that holds them,
// runs it once and slices the results back out per request.
func (s *BatchServer) serveBatch(lane int32, w *workerState, batch []*request) {
	k := 0
	for s.buckets[k].InputShape().N < len(batch) {
		k++
	}
	inBatch, outBatch := w.in[k], w.out[k]
	in := s.prog.InputShape()
	chw := in.C * in.H * in.W
	for slot, r := range batch {
		// Infer checked the shape, the one thing ConvertInto can reject.
		slotView := &tensor.Tensor{Shape: r.img.Shape, Layout: tensor.NCHW, Data: inBatch.Data[slot*chw : (slot+1)*chw]}
		_ = tensor.ConvertInto(r.img, slotView)
	}
	// Zero the padding slots: stale activations from a previous batch must
	// not leak between requests (values cannot, but padded garbage could
	// overflow to Inf/NaN inside its own image; zeros keep every run tame).
	clear(inBatch.Data[len(batch)*chw:])

	runCtx, cancel := batchContext(batch)
	rec := s.trace.Load()
	var batchT0 int64
	if rec != nil {
		batchT0 = rec.Now()
	}
	start := time.Now()
	err := func() (err error) {
		defer containPanic("server batch", &err)
		return s.run(runCtx, w, k)
	}()
	elapsed := time.Since(start)
	cancel()
	if err == nil {
		// Feed the admission-control estimate from successful batches only;
		// failed ones (faults, cancellations) do not measure capacity.
		s.batchLat.Observe(float64(elapsed) / 1e3)
		if k == len(s.buckets)-1 {
			s.fullLat.Observe(float64(elapsed) / 1e3)
		}
	}
	if rec != nil {
		rec.Record(obs.Span{
			Name: "batch", Cat: obs.CatBatch, Lane: lane,
			StartNS: batchT0, DurNS: int64(elapsed),
			Images: len(batch),
		})
	}
	s.batches.Add(1)
	s.requests.Add(uint64(len(batch)))
	s.padded.Add(uint64(inBatch.Shape.N - len(batch)))
	for {
		cur := s.largestBatch.Load()
		if uint64(len(batch)) <= cur || s.largestBatch.CompareAndSwap(cur, uint64(len(batch))) {
			break
		}
	}
	if err != nil {
		s.errors.Add(uint64(len(batch)))
		for _, r := range batch {
			r.resp <- response{err: err}
		}
		return
	}
	out := s.prog.OutputShape()
	perImage := out.C * out.H * out.W
	for slot, r := range batch {
		res := tensor.New(tensor.Shape{N: 1, C: out.C, H: out.H, W: out.W}, tensor.NCHW)
		copy(res.Data, outBatch.Data[slot*perImage:(slot+1)*perImage])
		r.resp <- response{out: res}
	}
}
