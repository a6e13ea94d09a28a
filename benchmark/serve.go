package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	memruntime "memcnn/internal/runtime"
	"memcnn/internal/tensor"
	"memcnn/internal/workloads"
)

const (
	serveBatch   = 8
	serveImages  = 64   // distinct request images
	serveRate    = 40.0 // phase A arrivals per second: about a quarter of phase B's capacity
	serveCallers = 16   // phase B closed-loop callers
	// phaseAShare is phase A's part of an untraced timed region; phase B has
	// the rest.
	phaseAShare = 0.65
	// serveRounds is how many times the two phases take turns in an untraced
	// timed region, and serveProbeRuns how many host probes make one reading
	// at a phase boundary.
	serveRounds    = 2
	serveProbeRuns = 3
	// cacheRepeats requests follow the serveImages distinct ones in the cache
	// pass, each repeating an image already answered: a quarter of the pass.
	cacheRepeats = 21
)

// serveConfig is what memcnnserve starts its server with by default.
var serveConfig = memruntime.ServerConfig{Workers: 2, MaxDelay: 2 * time.Millisecond}

// reply is one answered request, kept until verify.
type reply struct {
	image int
	out   []float32
}

// loadStats says how well the open-loop generator kept its schedule and
// whether the server kept up with it.
type loadStats struct {
	lateP99MS float64 // how late requests were fired, p99
	backlogS  float64 // requests in flight when the last one was due ÷ rate
}

// serveWorkload sends single-image requests to the batching server.
type serveWorkload struct {
	seed uint64
	compiled
	images    []*tensor.Tensor
	srv       *memruntime.BatchServer
	coldInfer time.Duration
	phases    uint64 // phases generated so far: each draws from its own stream
	requests  atomic.Int64

	mu      sync.Mutex
	replies []reply
	refs    [][]float32

	// The server whose runner and device record spans, started for the tracer
	// of the first traced measure call and kept until layers returns.
	tracedSrv *memruntime.BatchServer

	// Of the most recent measure call.
	stats memruntime.ServerStats
	load  loadStats
	// Of every traced phase A: latencies from the moment the request was
	// fired, which is what the server's own queue-wait and batch times add up
	// to, and how late each request was fired.
	tracedFireMS, tracedLateMS []float64
}

func newServeCifar(seed uint64) workload { return &serveWorkload{seed: seed} }

func (w *serveWorkload) program() *memruntime.Program { return w.prog }

func (w *serveWorkload) setup() (time.Duration, error) {
	began := time.Now()
	net, err := workloads.Cifar10WithBatch(serveBatch)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	in := net.InputShape()
	w.images = randomBatches(tensor.Shape{N: 1, C: in.C, H: in.H, W: in.W}, serveImages, stream(w.seed, 1), 1.0/16384)
	harness := time.Since(t0)

	if w.compiled, err = compileNet(net); err != nil {
		return 0, err
	}
	if w.srv, err = memruntime.NewServer(w.prog, serveConfig); err != nil {
		return 0, err
	}
	t0 = time.Now()
	if err := w.infer(context.Background(), w.srv, 0); err != nil {
		return 0, fmt.Errorf("cold request: %w", err)
	}
	w.coldInfer = time.Since(t0)
	return time.Since(began) - harness, nil
}

// infer sends one request and keeps its reply.
func (w *serveWorkload) infer(ctx context.Context, srv *memruntime.BatchServer, image int) error {
	out, err := srv.Infer(ctx, w.images[image])
	if err != nil {
		return err
	}
	w.mu.Lock()
	w.replies = append(w.replies, reply{image: image, out: out.Data})
	w.mu.Unlock()
	return nil
}

// nextStream returns the generator of the next phase's arrivals and images.
func (w *serveWorkload) nextStream() *rng {
	w.phases++
	return stream(w.seed, 100+w.phases)
}

func (w *serveWorkload) measure(d time.Duration, tr *tracer, hp *hostProbe) (timing, error) {
	ctx := context.Background()
	if tr != nil {
		// The traced run is phase A alone, against a server whose runner and
		// device record spans.
		if w.tracedSrv == nil {
			srv, err := memruntime.NewServerWith(w.prog, newTracedRunner(tr, w.prog, serveConfig.Workers), serveConfig)
			if err != nil {
				return timing{}, err
			}
			w.tracedSrv = srv
			if err := w.infer(ctx, srv, 0); err != nil { // fill the arenas off the clock
				return timing{}, err
			}
		}
		t, err := w.openLoop(ctx, w.tracedSrv, d, tr)
		w.stats = w.tracedSrv.Stats()
		return t, err
	}

	// Beside a host probe the two phases take turns, serveRounds of each, and
	// a probe reading is taken, with the server idle, before the first phase
	// and after every one: a phase's times are corrected by the readings on
	// either side of it.
	rounds := 1
	reading := func() float64 { return probeNominalMS }
	var t timing
	if hp != nil {
		rounds = serveRounds
		d -= time.Duration((2*rounds+1)*serveProbeRuns*probeNominalMS) * time.Millisecond // the readings are part of the region
		reading = func() float64 {
			t.probes = append(t.probes, hp.reading(serveProbeRuns))
			return t.probes[len(t.probes)-1]
		}
	}
	dA := time.Duration(phaseAShare*float64(d)) / time.Duration(rounds)
	dB := d/time.Duration(rounds) - dA
	before := reading()
	for r := 0; r < rounds; r++ {
		a, err := w.openLoop(ctx, w.srv, dA, nil)
		if err != nil {
			return timing{}, err
		}
		after := reading()
		f := hostFactor(before, after)
		for _, lat := range a.latMS {
			t.rawMS = append(t.rawMS, lat)
			t.latMS = append(t.latMS, lat*f)
		}
		before = after

		b := w.closedLoop(ctx, w.srv, dB)
		after = reading()
		f = hostFactor(before, after)
		t.images += b.images
		t.rawWall += b.wall
		t.wall += time.Duration(float64(b.wall) * f)
		t.attempted += a.attempted + b.attempted
		t.failed += a.failed + b.failed
		before = after
	}
	w.stats = w.srv.Stats()
	return t, nil
}

// openLoop is phase A: requests arrive on a seeded Poisson schedule whatever
// the server is doing, each waiting in its own goroutine, and a request's
// latency counts from when it was due, so a stall shows in every request
// behind it.
func (w *serveWorkload) openLoop(ctx context.Context, srv *memruntime.BatchServer, d time.Duration, tr *tracer) (timing, error) {
	r := w.nextStream()
	schedule := poissonSchedule(serveRate, d, r)
	picks := make([]int, len(schedule))
	for i := range picks {
		picks[i] = r.intn(serveImages)
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		t        = timing{attempted: len(schedule)}
		fireMS   = make([]float64, 0, len(schedule))
		lateMS   = make([]float64, 0, len(schedule))
		inFlight atomic.Int64
		backlog  = make([]int, 0, len(schedule))
	)
	start := time.Now()
	for i, offset := range schedule {
		due := start.Add(offset)
		time.Sleep(time.Until(due))
		backlog = append(backlog, int(inFlight.Add(1)))
		wg.Add(1)
		go func(image int) {
			defer wg.Done()
			defer inFlight.Add(-1)
			req := w.requests.Add(1)
			fired := time.Now()
			var id int64
			var t0 time.Duration
			if tr != nil {
				id, t0 = tr.begin()
			}
			err := w.infer(ctx, srv, image)
			done := time.Now()
			if tr != nil {
				tr.end(span{ID: id, Req: req, Cat: catRequest, Name: fmt.Sprintf("request %d", req), Lane: 100 + int(req%64), Start: t0})
			}
			mu.Lock()
			defer mu.Unlock()
			lateMS = append(lateMS, ms(fired.Sub(due)))
			if err != nil {
				t.failed++
				fmt.Printf("request %d failed: %v\n", req, err)
				return
			}
			t.latMS = append(t.latMS, ms(done.Sub(due)))
			fireMS = append(fireMS, ms(done.Sub(fired)))
		}(picks[i])
	}
	atEnd := inFlight.Load()
	wg.Wait()

	if tr != nil {
		w.tracedFireMS = append(w.tracedFireMS, fireMS...)
		w.tracedLateMS = append(w.tracedLateMS, lateMS...)
	}
	w.load = loadStats{
		lateP99MS: percentile(lateMS, 0.99),
		backlogS:  float64(atEnd) / serveRate,
	}
	fmt.Printf("phase A (open loop, %.0f req/s, %v): attempted %d, succeeded %d, failed %d; generator late p99 %.2f ms; backlog at end %.3f s\n",
		serveRate, d.Round(time.Millisecond), t.attempted, len(t.latMS), t.failed, w.load.lateP99MS, w.load.backlogS)
	if backlogGrowing(backlog) {
		return t, fmt.Errorf("invalid run: at %.0f req/s the backlog was still growing in the last third of phase A, so its latencies measure the length of the phase, not the server", serveRate)
	}
	return t, nil
}

// backlogGrowing reports whether the number of requests in flight, sampled at
// every arrival, was still climbing at the end: the last third's median is
// both well above the middle third's and more than a batch above it.  A server
// that keeps up holds about rate × latency requests throughout.
func backlogGrowing(inFlight []int) bool {
	n := len(inFlight)
	if n < 30 {
		return false
	}
	third := func(lo, hi int) float64 {
		v := make([]float64, 0, hi-lo)
		for _, x := range inFlight[lo:hi] {
			v = append(v, float64(x))
		}
		return median(v)
	}
	mid, last := third(n/3, 2*n/3), third(2*n/3, n)
	return last > 1.5*mid && last > mid+serveBatch
}

// closedLoop is phase B: callers that each wait for their reply before
// sending the next request, which measures capacity.
func (w *serveWorkload) closedLoop(ctx context.Context, srv *memruntime.BatchServer, d time.Duration) timing {
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		attempted int
		failed    int
	)
	start := time.Now()
	for c := 0; c < serveCallers; c++ {
		r := w.nextStream()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				err := w.infer(ctx, srv, r.intn(serveImages))
				mu.Lock()
				attempted++
				if err != nil {
					failed++
					fmt.Printf("phase B request failed: %v\n", err)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	t := timing{wall: time.Since(start), images: attempted - failed, attempted: attempted, failed: failed}
	fmt.Printf("phase B (closed loop, %d callers, %v): attempted %d, succeeded %d, failed %d\n",
		serveCallers, d.Round(time.Millisecond), attempted, t.images, failed)
	return t
}

func (w *serveWorkload) verify() (int, error) {
	if w.refs == nil {
		// Network.Forward on the request images, a batch at a time.
		for first := 0; first < serveImages; first += serveBatch {
			out, err := w.net.Forward(stackImages(w.images[first : first+serveBatch]))
			if err != nil {
				return 0, fmt.Errorf("computing references: %w", err)
			}
			out = tensor.Convert(out, tensor.NCHW)
			per := out.Shape.Elems() / serveBatch
			for i := 0; i < serveBatch; i++ {
				w.refs = append(w.refs, out.Data[i*per:(i+1)*per])
			}
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	missed := 0
	shape := tensor.Shape{N: 1, C: len(w.refs[0]), H: 1, W: 1}
	for i, rp := range w.replies {
		got, err := tensor.NewFrom(shape, tensor.NCHW, rp.out)
		if err != nil {
			return 0, err
		}
		want, err := tensor.NewFrom(shape, tensor.NCHW, w.refs[rp.image])
		if err != nil {
			return 0, err
		}
		if !closeTo(got, want) {
			missed++
			fmt.Printf("reply %d (image %d) misses its reference\n", i, rp.image)
		}
	}
	return missed, nil
}

func (w *serveWorkload) layers(m metrics, d time.Duration) ([]span, timing, error) {
	tr := newTracer()
	bare, traced, err := alternate(w, 3*d/10, 4*d/10, tr)
	if w.tracedSrv != nil {
		defer w.tracedSrv.Close()
	}
	if err != nil {
		return nil, timing{}, err
	}
	spans := tr.snapshot()
	if err := programMetrics(m, w.compiled); err != nil {
		return nil, timing{}, err
	}
	shareMetrics(m, attribute(spans, catBatch))
	m["trace.overhead_frac"] = traced.medianMS()/bare.medianMS() - 1

	st := w.stats
	m["server.requests"] = float64(st.Requests)
	m["server.batches"] = float64(st.Batches)
	m["server.avg_batch"] = st.AvgBatch
	m["server.pad_frac"] = 1 - st.AvgBatch/serveBatch
	m["server.queue_wait_p50_ms"] = st.QueueWaitP50US / 1e3
	m["server.queue_wait_p99_ms"] = st.QueueWaitP99US / 1e3
	// Batch times are the runner wrapper's spans, which are exact; Stats()
	// rounds the same times up to histogram buckets 19% apart, as it does the
	// queue waits, which only it can see.
	var batchMS []float64
	for _, s := range spans {
		if s.Cat == catBatch {
			batchMS = append(batchMS, ms(s.Dur))
		}
	}
	m["server.batch_p50_ms"] = median(batchMS)
	m["server.batch_p99_ms"] = percentile(batchMS, 0.99)
	m["server.overhead_p50_ms"] = median(w.tracedFireMS) - st.QueueWaitP50US/1e3 - median(batchMS)
	m["server.shed"] = float64(st.Shed)
	m["server.expired"] = float64(st.Expired)
	m["server.errors"] = float64(st.Errors)
	m["loadgen.late_p99_ms"] = percentile(w.tracedLateMS, 0.99)
	m["loadgen.backlog_s"] = w.load.backlogS

	cached, err := w.cachePass(m)
	if err != nil {
		return nil, timing{}, err
	}

	// The unloaded batch: the program on a single executor, nothing else running.
	exec := memruntime.NewExecutor(w.prog)
	in := stackImages(w.images[:serveBatch])
	out := tensor.New(w.prog.OutputShape(), tensor.NCHW)
	const runs = 10
	allocs := startAllocs()
	bareMS, err := timeRuns(exec, in, out, runs, true)
	if err != nil {
		return nil, timing{}, err
	}
	m["executor.allocs_per_run"], m["executor.alloc_bytes_per_run"] = allocs.perOp(runs + 1)
	m["executor.run_ms"] = bareMS
	m["executor.cold_run_ms"] = ms(w.coldInfer)
	if err := instrumentMetrics(m, exec, in, out, runs); err != nil {
		return nil, timing{}, err
	}
	if err := regretMetrics(m, w.prog); err != nil {
		return nil, timing{}, err
	}
	if err := standaloneMetrics(m); err != nil {
		return nil, timing{}, err
	}

	return spans, bare.joined(traced).joined(cached), nil
}

// cachePass sends every request image once and then repeats some of them to a
// server with the result cache on.
func (w *serveWorkload) cachePass(m metrics) (timing, error) {
	cfg := serveConfig
	cfg.CacheEntries = 256
	srv, err := memruntime.NewServer(w.prog, cfg)
	if err != nil {
		return timing{}, err
	}
	defer srv.Close()
	ctx := context.Background()
	r := w.nextStream()

	var t timing
	send := func(images []int) []float64 {
		var (
			wg   sync.WaitGroup
			mu   sync.Mutex
			lat  []float64
			next atomic.Int64
		)
		for c := 0; c < serveBatch; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(images) {
						return
					}
					t0 := time.Now()
					err := w.infer(ctx, srv, images[i])
					us := float64(time.Since(t0)) / float64(time.Microsecond)
					mu.Lock()
					t.attempted++
					if err != nil {
						t.failed++
						fmt.Printf("cache pass request failed: %v\n", err)
					} else {
						lat = append(lat, us)
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		return lat
	}
	first := make([]int, serveImages)
	for i := range first {
		first[i] = i
	}
	send(first)
	repeats := make([]int, cacheRepeats)
	for i := range repeats {
		repeats[i] = r.intn(serveImages)
	}
	hitUS := send(repeats)
	if cs := srv.Stats().Cache; cs != nil && cs.Hits+cs.Misses > 0 {
		m["cache.hit_frac"] = float64(cs.Hits) / float64(cs.Hits+cs.Misses)
	}
	m["cache.hit_p50_us"] = median(hitUS)
	return t, nil
}

func (w *serveWorkload) referenceMetrics(metrics) {}
