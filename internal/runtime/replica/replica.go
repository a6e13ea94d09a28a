// Package replica schedules data-parallel execution of a compiled program: a
// Group clones the program across N devices — shared read-only weights, one
// arena pool per replica — and serves each incoming batch by splitting it
// into per-replica sub-batches, running them concurrently and reassembling
// the outputs bit-identically to a single-device run.
//
// The split is heterogeneity-aware: each replica's slice of the batch is
// proportional to its modeled throughput (SimDevice replicas are priced on
// their internal/gpusim hardware model; native CPU replicas are measured with
// a warmup probe), so a TitanBlack+TitanX-style mixed fleet finishes its
// sub-batches in comparable wall time instead of idling the faster card.
// Replicas may themselves be pipeline-sharded across several devices
// (runtime.Shard inside the replica), composing data parallelism with the
// pipeline's model parallelism.
//
// Bit-identical reassembly rests on two properties the rest of the runtime
// already guarantees: every layer processes images independently with a fixed
// per-image accumulation order (so a sub-batch computes exactly the rows of
// the full batch it was handed), and per-replica programs come from
// Program.WithBatch, which lowers the base program's own per-layer layouts and
// convolution algorithms at the sub-batch size (golden bit-equality holds per
// algorithm, and selection would otherwise go by the smaller sub-batch shape).
//
// The modeled cost of feeding the replicas accounts for interconnect
// contention: the batch scatter starts one transfer per simulated replica at
// the same instant, and gpusim.Interconnect.ScatterUS divides the link
// bandwidth among them (K overlapping transfers run at 1/K the lone rate).
//
// # Fault tolerance
//
// The group survives its replicas: a sub-batch that fails is retried on the
// same replica under capped exponential backoff (Config.MaxRetries,
// Config.RetryBackoff); a replica that exhausts its retries is marked
// runtime.Unhealthy, taken out of rotation, and the batch split is re-derived
// over the surviving replicas' original weights — the whole batch then re-runs
// on the new topology, so whatever the group answers is still bit-identical
// to the single-device run (rows are image-independent and deterministic,
// never partially stitched across topologies).  Unhealthy replicas are probed
// in the background (Config.ProbeInterval) and re-admitted — with another
// topology re-derivation — once a probe run succeeds, so a replica that only
// suffered transient faults returns to rotation while a permanently dead one
// stays out.  Panics inside a replica's engine are contained into
// *runtime.PanicError by the executor and counted, failing only the batch
// that hit them.  The retry / failover / re-admission counters are exposed
// via FaultStats (runtime.FaultReporter), which the batching server folds
// into its ServerStats.
package replica

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"memcnn/internal/gpusim"
	"memcnn/internal/obs"
	"memcnn/internal/runtime"
	"memcnn/internal/tensor"
)

// ErrGroupClosed is returned for batches submitted to a closed group.
var ErrGroupClosed = errors.New("replica: group closed")

// ErrNoHealthyReplicas is returned when every replica has been marked
// unhealthy: the group has nothing left to fail over to.
var ErrNoHealthyReplicas = errors.New("replica: no healthy replicas")

// Config tunes how a Group is built.
type Config struct {
	// Devices assigns each replica its device list: one device runs the
	// replica on a single executor, several pipeline-shard the replica's
	// program across them (data × model parallelism).  nil gives every
	// replica the native CPU device; an empty inner slice does the same for
	// that replica.
	Devices [][]runtime.Device
	// Weights fixes the per-replica throughput weights explicitly (len must
	// equal the replica count; weights must be non-negative with a positive
	// sum, and a replica weighted 0 receives no images).  When nil the
	// weights are derived from the devices: modeled throughput for simulated
	// devices, a warmup-probe measurement for CPU devices (the minimum of
	// warmupProbes timed runs, filtering scheduler noise).
	Weights []float64
	// MaxRetries is how many times a failed sub-batch is re-run on the same
	// replica before the replica is marked unhealthy and the batch fails over
	// to the survivors.  Default 2; negative disables retries (first failure
	// fails over immediately).
	MaxRetries int
	// RetryBackoff is the capped exponential delay between retries.  The
	// zero value defaults to Base 1ms, Max 50ms.
	RetryBackoff runtime.Backoff
	// ProbeInterval is how often unhealthy replicas are probed for
	// re-admission.  Default 25ms; negative disables background probing
	// (an unhealthy replica then stays out until the process restarts).
	ProbeInterval time.Duration
}

// withDefaults replaces unset fields with their defaults.
func (c Config) withDefaults() Config {
	if c.MaxRetries == 0 {
		c.MaxRetries = 2
	} else if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.RetryBackoff == (runtime.Backoff{}) {
		c.RetryBackoff = runtime.Backoff{Base: time.Millisecond, Max: 50 * time.Millisecond}
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 25 * time.Millisecond
	}
	return c
}

// Group replicates a compiled program across devices and implements
// runtime.Runner by scattering each batch over the replicas.  RunInto is safe
// for concurrent use: every call slices its own sub-batch views and each
// replica's executor draws a private arena instance per run.  The group is
// also a runtime.FaultReporter; see the package comment for the failover
// behaviour.
type Group struct {
	base     *runtime.Program
	cfg      Config
	units    []*unit
	weights  []float64 // original derived/configured weights, by replica
	inShape  tensor.Shape
	outShape tensor.Shape

	// topo is the current batch split; swapped whole on failover and
	// re-admission so in-flight batches keep a consistent view.
	topo atomic.Pointer[topology]

	inPool  sync.Pool // staging for non-NCHW callers
	outPool sync.Pool

	mu     sync.Mutex // serialises topology rebuilds and Close
	closed atomic.Bool

	probeStop chan struct{}
	probeWG   sync.WaitGroup

	retries      atomic.Uint64
	failovers    atomic.Uint64
	readmissions atomic.Uint64
	panics       atomic.Uint64

	// obsv is the group's instrumentation (nil when uninstrumented).  Atomic
	// because engines are built lazily under each unit's lock — a failover
	// rebuild compiling a new engine must see the observer without taking a
	// group-wide lock on the batch path.
	obsv atomic.Pointer[groupObs]
}

// groupObs is the group's prepared instrumentation: the shared observer, the
// per-replica lane layout and the per-replica sub-batch span templates and
// latency histograms.
type groupObs struct {
	ob     runtime.Observer
	stride int32 // trace lanes reserved per replica (its pipeline depth)
	spans  []obs.Span
	hists  []*obs.Histogram
}

// laneFor returns the first trace lane of a replica's block.
func (gob *groupObs) laneFor(replica int) int32 {
	return runtime.LaneEngine + int32(replica)*gob.stride
}

// observe records one sub-batch run on one replica.
func (gob *groupObs) observe(replica int, t0 int64, elapsed time.Duration, modeledUS float64, images int) {
	if gob.ob.Trace != nil {
		sp := gob.spans[replica]
		sp.StartNS, sp.DurNS = t0, int64(elapsed)
		sp.ModeledUS, sp.Images = modeledUS, images
		gob.ob.Trace.Record(sp)
	}
	gob.hists[replica].Observe(float64(elapsed) / 1e3)
}

// topology is one immutable batch split over the units: the per-unit image
// counts, their row offsets, and the modeled contended scatter cost.
type topology struct {
	shares  []int
	offsets []int
	scatter []float64 // modeled contended scatter cost per replica, us/batch
}

// unit is one replica: its devices, health, and the engines built for the
// sub-batch sizes it has served (one compiled program per distinct share,
// cached — failover changes a replica's share, and re-deriving the split
// must not recompile programs on the hot path more than once per size).
type unit struct {
	index   int
	devices []runtime.Device

	healthy atomic.Bool

	mu      sync.Mutex
	engines map[int]*engine // share -> engine

	batches    atomic.Uint64
	failures   atomic.Uint64
	measuredNS atomic.Int64
}

// engine is one compiled sub-batch program and the executor or pipeline
// running it.
type engine struct {
	prog    *runtime.Program
	exec    *runtime.Executor         // single-device replica
	pipe    *runtime.PipelineExecutor // pipeline-sharded replica
	modeled float64                   // static modeled us per sub-batch (0 on CPU)
}

// run executes one sub-batch on the engine.
func (e *engine) run(ctx context.Context, in, out *tensor.Tensor) error {
	if e.exec != nil {
		return e.exec.RunIntoCtx(ctx, in, out)
	}
	return e.pipe.RunIntoCtx(ctx, in, out)
}

// instrument attaches (or with a zero observer detaches) the engine's
// executor or pipeline to the replica's trace lane block.
func (e *engine) instrument(ob runtime.Observer, lane int32, replica int) {
	if e.exec != nil {
		if ob.Trace != nil {
			ob.Trace.SetLane(lane, fmt.Sprintf("replica %d (%s)", replica, e.exec.Device().Name()))
		}
		e.exec.Instrument(ob, lane)
		return
	}
	e.pipe.Instrument(ob, lane, fmt.Sprintf("r%d ", replica))
}

// NewGroup builds a replica group for a compiled program.  Close must be
// called to stop the background prober and the stage goroutines of
// pipeline-sharded replicas.
func NewGroup(base *runtime.Program, replicas int, cfg Config) (*Group, error) {
	if base == nil {
		return nil, fmt.Errorf("replica: cannot replicate a nil program")
	}
	if replicas <= 0 {
		return nil, fmt.Errorf("replica: replica count %d must be positive", replicas)
	}
	if cfg.Devices != nil && len(cfg.Devices) != replicas {
		return nil, fmt.Errorf("replica: %d device lists for %d replicas", len(cfg.Devices), replicas)
	}
	cfg = cfg.withDefaults()
	// Work on a copy of the outer slice: defaulting empty entries to the CPU
	// must not write through to the caller's configuration.
	devices := make([][]runtime.Device, replicas)
	copy(devices, cfg.Devices)
	for i, devs := range devices {
		if len(devs) == 0 {
			devices[i] = []runtime.Device{runtime.CPUDevice{}}
		}
	}

	weights := cfg.Weights
	if weights == nil {
		weights = DeriveWeights(base, devices)
	}
	if len(weights) != replicas {
		return nil, fmt.Errorf("replica: %d weights for %d replicas", len(weights), replicas)
	}

	g := &Group{
		base:      base,
		cfg:       cfg,
		weights:   append([]float64(nil), weights...),
		inShape:   base.InputShape(),
		outShape:  base.OutputShape(),
		probeStop: make(chan struct{}),
	}
	g.inPool.New = func() any { return tensor.New(g.inShape, tensor.NCHW) }
	g.outPool.New = func() any { return tensor.New(g.outShape, tensor.NCHW) }
	for i := range devices {
		u := &unit{index: i, devices: devices[i], engines: map[int]*engine{}}
		u.healthy.Store(true)
		g.units = append(g.units, u)
	}
	topo, err := g.deriveTopology()
	if err != nil {
		g.Close()
		return nil, err
	}
	g.topo.Store(topo)
	if cfg.ProbeInterval > 0 {
		g.probeWG.Add(1)
		go g.probeLoop()
	}
	return g, nil
}

// deriveTopology computes the batch split over the currently healthy units
// (using their original weights) and ensures every unit that receives images
// has an engine compiled for its share.
func (g *Group) deriveTopology() (*topology, error) {
	live := make([]float64, len(g.units))
	any := false
	for i, u := range g.units {
		if u.healthy.Load() && g.weights[i] > 0 {
			live[i] = g.weights[i]
			any = true
		}
	}
	if !any {
		return nil, ErrNoHealthyReplicas
	}
	shares, err := Shares(g.inShape.N, live)
	if err != nil {
		return nil, err
	}
	offsets := make([]int, len(shares))
	offset := 0
	for i, share := range shares {
		offsets[i] = offset
		offset += share
		if share > 0 {
			if _, err := g.units[i].engine(g, share); err != nil {
				return nil, err
			}
		}
	}
	return &topology{shares: shares, offsets: offsets, scatter: g.modelScatter(shares)}, nil
}

// rebuild re-derives the topology after a health transition.  Concurrent
// failing batches race to call it; the lock makes the rebuilds sequential and
// each one computes from the health state it observes, so the last rebuild
// reflects the final state.
func (g *Group) rebuild() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed.Load() {
		return ErrGroupClosed
	}
	topo, err := g.deriveTopology()
	if err != nil {
		return err
	}
	g.topo.Store(topo)
	return nil
}

// engine returns the unit's engine for a sub-batch of the given share,
// compiling and caching it on first use.  A freshly built engine inherits the
// group's instrumentation — failover and re-admission compile new shares on
// the hot path, and their spans must not silently vanish.
func (u *unit) engine(g *Group, share int) (*engine, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if e, ok := u.engines[share]; ok {
		return e, nil
	}
	e, err := buildEngine(g.base, u.devices, share)
	if err != nil {
		return nil, fmt.Errorf("replica %d: %w", u.index, err)
	}
	if gob := g.obsv.Load(); gob != nil {
		e.instrument(gob.ob, gob.laneFor(u.index), u.index)
	}
	u.engines[share] = e
	return e, nil
}

// buildEngine compiles a sub-batch program (the base's layouts and algorithm
// choices, over the base network's shared weights) and starts its engine.
// Devices are resolved through fault wrappers (runtime.SimOf) so a wrapped
// simulated device keeps its modeled pricing.
func buildEngine(base *runtime.Program, devices []runtime.Device, share int) (*engine, error) {
	prog, err := base.WithBatch(share)
	if err != nil {
		return nil, err
	}
	e := &engine{prog: prog}
	if len(devices) == 1 {
		e.exec = runtime.NewExecutorOn(prog, devices[0])
		if sd := runtime.SimOf(devices[0]); sd != nil {
			e.modeled = sd.ModelProgramUS(prog)
		}
		return e, nil
	}
	sp, err := runtime.Shard(prog, len(devices), runtime.ShardOptions{Devices: devices})
	if err != nil {
		return nil, err
	}
	e.pipe = runtime.NewPipelineExecutor(sp)
	for _, st := range sp.Stages {
		if sd := runtime.SimOf(st.Device); sd != nil {
			e.modeled += sd.ModelProgramUS(st.Prog) + sd.TransferInUS(st.TransferInBytes)
		}
	}
	return e, nil
}

// modelScatter prices the batch scatter for one share split: the sub-batch
// transfers onto every simulated replica start together and contend for the
// shared link, so each completes at the water-filled time
// gpusim.Interconnect.ScatterUS assigns it (plus the receiving device's
// launch overhead).  CPU replicas are host-local and free.
func (g *Group) modelScatter(shares []int) []float64 {
	chw := int64(g.inShape.C) * int64(g.inShape.H) * int64(g.inShape.W) * 4
	sizes := make([]int64, len(g.units))
	var link gpusim.Interconnect
	sims := 0
	for i, u := range g.units {
		if sd := runtime.SimOf(u.devices[0]); sd != nil && shares[i] > 0 {
			sizes[i] = int64(shares[i]) * chw
			link = sd.Link()
			sims++
		}
	}
	out := make([]float64, len(g.units))
	if sims == 0 {
		return out
	}
	done := link.ScatterUS(sizes)
	for i, u := range g.units {
		if sizes[i] > 0 {
			out[i] = done[i] + runtime.SimOf(u.devices[0]).HW.LaunchOverheadUS
		}
	}
	return out
}

// Replicas returns the replica count (including idle and unhealthy replicas).
func (g *Group) Replicas() int { return len(g.units) }

// Health returns the per-replica health states.
func (g *Group) Health() []runtime.Health {
	out := make([]runtime.Health, len(g.units))
	for i, u := range g.units {
		if !u.healthy.Load() {
			out[i] = runtime.Unhealthy
		}
	}
	return out
}

// HealthyReplicas returns how many replicas are currently in rotation.
func (g *Group) HealthyReplicas() int {
	n := 0
	for _, u := range g.units {
		if u.healthy.Load() {
			n++
		}
	}
	return n
}

// FaultStats implements runtime.FaultReporter.
func (g *Group) FaultStats() runtime.FaultStats {
	return runtime.FaultStats{
		Retries:           g.retries.Load(),
		Failovers:         g.failovers.Load(),
		Readmissions:      g.readmissions.Load(),
		Panics:            g.panics.Load(),
		UnhealthyReplicas: len(g.units) - g.HealthyReplicas(),
	}
}

// ModeledBatchUS returns the modeled wall time of one scattered batch under
// the current topology: the slowest replica's contended scatter transfer plus
// sub-batch execution.  Zero when no replica runs on a modeled device.
func (g *Group) ModeledBatchUS() float64 {
	topo := g.topo.Load()
	var worst float64
	for i, u := range g.units {
		if topo.shares[i] == 0 {
			continue
		}
		e, err := u.engine(g, topo.shares[i])
		if err != nil {
			continue
		}
		if total := e.modeled + topo.scatter[i]; total > worst {
			worst = total
		}
	}
	return worst
}

// RunInto implements runtime.Runner: the batch is scattered across the
// replicas, the sub-batches run concurrently, and the outputs land in dst
// exactly where a single-device run would put them.
func (g *Group) RunInto(in, dst *tensor.Tensor) error {
	return g.RunIntoCtx(context.Background(), in, dst)
}

// RunIntoCtx is RunInto honoring a context: cancellation propagates into
// every replica's sub-batch (between ops, between pipeline stages) and
// suppresses retries and failover — a deadline-expired batch fails with
// ctx.Err() instead of burning the survivors on work nobody is waiting for.
func (g *Group) RunIntoCtx(ctx context.Context, in, dst *tensor.Tensor) error {
	if g.closed.Load() {
		return ErrGroupClosed
	}
	if in.Shape != g.inShape {
		return fmt.Errorf("replica: %s input shape %v, want %v", g.base.Net.Name, in.Shape, g.inShape)
	}
	if dst.Shape != g.outShape {
		return fmt.Errorf("replica: %s output shape %v, want %v", g.base.Net.Name, dst.Shape, g.outShape)
	}
	// Sub-batch views slice images off the NCHW linearisation; callers in
	// other layouts stage through pooled NCHW tensors.
	src := in
	if in.Layout != tensor.NCHW {
		staged := g.inPool.Get().(*tensor.Tensor)
		defer g.inPool.Put(staged)
		if err := tensor.ConvertInto(in, staged); err != nil {
			return fmt.Errorf("replica: staging input: %w", err)
		}
		src = staged
	}
	out := dst
	if dst.Layout != tensor.NCHW {
		staged := g.outPool.Get().(*tensor.Tensor)
		defer g.outPool.Put(staged)
		out = staged
	}

	// Failover loop: run the whole batch on the current topology; if any
	// replica fails past its retries, mark it unhealthy, re-derive the split
	// over the survivors and re-run the whole batch.  Re-running everything
	// (rather than stitching surviving rows to re-computed ones) keeps the
	// output bit-identical trivially: rows are image-independent and
	// deterministic, so each full re-run reproduces the same bits.  The loop
	// is bounded by the replica count — every iteration removes at least one
	// replica or returns.
	var lastErr error
	for round := 0; round <= len(g.units); round++ {
		topo := g.topo.Load()
		errs := g.runTopology(ctx, topo, src, out)
		lastErr = errors.Join(errs...)
		if lastErr == nil {
			if out != dst {
				if err := tensor.ConvertInto(out, dst); err != nil {
					return fmt.Errorf("replica: delivering output: %w", err)
				}
			}
			return nil
		}
		if err := ctx.Err(); err != nil {
			// The caller is gone (or out of time): don't fail over on its
			// behalf — the failure may be the cancellation itself.
			return err
		}
		for i, uerr := range errs {
			if uerr == nil {
				continue
			}
			if g.units[i].healthy.CompareAndSwap(true, false) {
				g.failovers.Add(1)
			}
		}
		if err := g.rebuild(); err != nil {
			return fmt.Errorf("replica: %w (last batch error: %w)", err, lastErr)
		}
	}
	return fmt.Errorf("replica: %w", lastErr)
}

// runTopology runs one whole batch under one topology, returning the
// per-unit errors (nil entries for units that succeeded or were idle).
func (g *Group) runTopology(ctx context.Context, topo *topology, src, out *tensor.Tensor) []error {
	chwIn := g.inShape.C * g.inShape.H * g.inShape.W
	chwOut := g.outShape.C * g.outShape.H * g.outShape.W
	var wg sync.WaitGroup
	errs := make([]error, len(g.units))
	for i, u := range g.units {
		share, offset := topo.shares[i], topo.offsets[i]
		if share == 0 {
			continue
		}
		e, err := u.engine(g, share)
		if err != nil {
			errs[i] = err
			continue
		}
		subIn, err := tensor.NewFrom(
			tensor.Shape{N: share, C: g.inShape.C, H: g.inShape.H, W: g.inShape.W},
			tensor.NCHW, src.Data[offset*chwIn:(offset+share)*chwIn])
		if err != nil {
			errs[i] = fmt.Errorf("replica %d: %w", u.index, err)
			continue
		}
		subOut, err := tensor.NewFrom(
			tensor.Shape{N: share, C: g.outShape.C, H: g.outShape.H, W: g.outShape.W},
			tensor.NCHW, out.Data[offset*chwOut:(offset+share)*chwOut])
		if err != nil {
			errs[i] = fmt.Errorf("replica %d: %w", u.index, err)
			continue
		}
		wg.Add(1)
		go func(u *unit, e *engine, subIn, subOut *tensor.Tensor) {
			defer wg.Done()
			if err := g.runUnit(ctx, u, e, subIn, subOut); err != nil {
				errs[u.index] = fmt.Errorf("replica %d: %w", u.index, err)
			}
		}(u, e, subIn, subOut)
	}
	wg.Wait()
	return errs
}

// runUnit runs one sub-batch on one replica, retrying under backoff on
// failure.  Panics have already been contained into *runtime.PanicError by
// the engine's executor; they are counted here and treated like any other
// failure.  Cancellation suppresses retries.
func (g *Group) runUnit(ctx context.Context, u *unit, e *engine, in, out *tensor.Tensor) error {
	for attempt := 0; ; attempt++ {
		gob := g.obsv.Load()
		var t0 int64
		if gob != nil && gob.ob.Trace != nil {
			t0 = gob.ob.Trace.Now()
		}
		start := time.Now()
		err := e.run(ctx, in, out)
		elapsed := time.Since(start)
		u.measuredNS.Add(int64(elapsed))
		u.batches.Add(1)
		if gob != nil {
			gob.observe(u.index, t0, elapsed, e.modeled, in.Shape.N)
		}
		if err == nil {
			return nil
		}
		u.failures.Add(1)
		var pe *runtime.PanicError
		if errors.As(err, &pe) {
			g.panics.Add(1)
		}
		if ctx.Err() != nil || attempt >= g.cfg.MaxRetries {
			return err
		}
		g.retries.Add(1)
		if d := g.cfg.RetryBackoff.Delay(attempt); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return ctx.Err()
			case <-g.probeStop:
				return ErrGroupClosed
			}
		}
	}
}

// probeLoop periodically probes unhealthy replicas with a one-image run and
// re-admits those whose probe succeeds, re-deriving the topology to hand them
// traffic again.
func (g *Group) probeLoop() {
	defer g.probeWG.Done()
	ticker := time.NewTicker(g.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-g.probeStop:
			return
		case <-ticker.C:
		}
		for i, u := range g.units {
			if u.healthy.Load() || g.weights[i] <= 0 {
				continue
			}
			if g.probeUnit(u) {
				if u.healthy.CompareAndSwap(false, true) {
					g.readmissions.Add(1)
					if err := g.rebuild(); err != nil {
						// Nothing healthy changed for the worse; leave the
						// old topology standing and retry next tick.
						u.healthy.Store(false)
					}
				}
			}
		}
	}
}

// probeUnit runs one sub-batch through the replica's smallest cached engine
// (compiling a one-image engine if it has none) and reports success.  A dead
// device fails the probe immediately; a transiently faulty one eventually
// passes.
func (g *Group) probeUnit(u *unit) bool {
	u.mu.Lock()
	share := -1
	for s := range u.engines {
		if share == -1 || s < share {
			share = s
		}
	}
	u.mu.Unlock()
	if share == -1 {
		share = 1
	}
	e, err := u.engine(g, share)
	if err != nil {
		return false
	}
	in := tensor.New(tensor.Shape{N: share, C: g.inShape.C, H: g.inShape.H, W: g.inShape.W}, tensor.NCHW)
	out := tensor.New(tensor.Shape{N: share, C: g.outShape.C, H: g.outShape.H, W: g.outShape.W}, tensor.NCHW)
	err = func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("replica %d: probe panic: %v", u.index, r)
			}
		}()
		return e.run(context.Background(), in, out)
	}()
	return err == nil
}

// Close stops the background prober and the stage goroutines of
// pipeline-sharded replicas.  It is idempotent; RunInto after Close returns
// ErrGroupClosed.
func (g *Group) Close() {
	g.mu.Lock()
	if g.closed.Load() {
		g.mu.Unlock()
		return
	}
	g.closed.Store(true)
	close(g.probeStop)
	g.mu.Unlock()
	g.probeWG.Wait()
	for _, u := range g.units {
		u.mu.Lock()
		for _, e := range u.engines {
			if e.pipe != nil {
				e.pipe.Close()
			}
		}
		u.mu.Unlock()
	}
}

// Instrument attaches an observer to the group: every sub-batch records a
// replica span (with its share and modeled micros) on the replica's trace
// lane block — replica r owns lanes [laneFor(r), laneFor(r)+stride), where
// stride is the deepest replica pipeline, so a pipelined replica's stage
// lanes sit next to its sub-batch lane — and per-replica latency histograms
// and batch/failure counters are registered in the metrics registry.  All
// engines already compiled are instrumented, and engines compiled later
// (failover shares, probe engines) inherit the observer.  Call before
// serving traffic; a zero Observer detaches.
func (g *Group) Instrument(ob runtime.Observer) {
	if !ob.Enabled() {
		g.obsv.Store(nil)
		for _, u := range g.units {
			u.mu.Lock()
			for _, e := range u.engines {
				e.instrument(runtime.Observer{}, 0, u.index)
			}
			u.mu.Unlock()
		}
		return
	}
	stride := 1
	for _, u := range g.units {
		if len(u.devices) > stride {
			stride = len(u.devices)
		}
	}
	net := g.base.Net.Name
	gob := &groupObs{ob: ob, stride: int32(stride)}
	for i, u := range g.units {
		rL := obs.L("replica", fmt.Sprintf("%d", i))
		gob.spans = append(gob.spans, obs.Span{
			Name: fmt.Sprintf("replica %d", i),
			Cat:  obs.CatReplica,
			Lane: gob.laneFor(i),
		})
		gob.hists = append(gob.hists, ob.Metrics.Histogram("memcnn_replica_latency_us",
			"Per-replica sub-batch wall latency.", obs.L("net", net), rL))
		u := u
		ob.Metrics.CounterFunc("memcnn_replica_batches_total",
			"Sub-batch runs per replica (including retries).",
			func() float64 { return float64(u.batches.Load()) }, obs.L("net", net), rL)
		ob.Metrics.CounterFunc("memcnn_replica_failures_total",
			"Failed sub-batch runs per replica.",
			func() float64 { return float64(u.failures.Load()) }, obs.L("net", net), rL)
	}
	g.obsv.Store(gob)
	for i, u := range g.units {
		u.mu.Lock()
		for _, e := range u.engines {
			e.instrument(ob, gob.laneFor(i), i)
		}
		u.mu.Unlock()
	}
}

// Stats reports one replica's share and observed cost.
type Stats struct {
	Replica int
	Devices string
	Weight  float64
	Share   int
	Health  string
	Batches uint64
	// Failures counts sub-batch runs (including retries) that returned an
	// error.
	Failures uint64
	// ScatterUS is the modeled contended input transfer per batch and
	// ModeledUS the modeled sub-batch total including it; both zero on
	// unmodeled (CPU) replicas.
	ScatterUS float64
	ModeledUS float64
	// MeasuredUS is the mean measured wall time per sub-batch.
	MeasuredUS float64
}

// ReplicaStats snapshots per-replica counters under the current topology.
func (g *Group) ReplicaStats() []Stats {
	topo := g.topo.Load()
	out := make([]Stats, len(g.units))
	for i, u := range g.units {
		names := make([]string, len(u.devices))
		for j, d := range u.devices {
			names[j] = d.Name()
		}
		health := runtime.Healthy
		if !u.healthy.Load() {
			health = runtime.Unhealthy
		}
		s := Stats{
			Replica:   i,
			Devices:   strings.Join(names, "+"),
			Weight:    g.weights[i],
			Share:     topo.shares[i],
			Health:    health.String(),
			Batches:   u.batches.Load(),
			Failures:  u.failures.Load(),
			ScatterUS: topo.scatter[i],
		}
		if topo.shares[i] > 0 {
			if e, err := u.engine(g, topo.shares[i]); err == nil {
				s.ModeledUS = e.modeled + topo.scatter[i]
			}
		}
		if s.Batches > 0 {
			s.MeasuredUS = float64(u.measuredNS.Load()) / 1e3 / float64(s.Batches)
		}
		out[i] = s
	}
	return out
}

// Shares apportions a batch across replicas proportionally to their weights
// (largest-remainder rounding, ties to the lower index, so the split is
// deterministic).  Weights must be non-negative with a positive sum; a
// replica weighted 0 is guaranteed an empty share.
func Shares(batch int, weights []float64) ([]int, error) {
	if batch <= 0 {
		return nil, fmt.Errorf("replica: batch %d must be positive", batch)
	}
	if len(weights) == 0 {
		return nil, fmt.Errorf("replica: no replica weights")
	}
	var sum float64
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("replica: weight %d is %v", i, w)
		}
		sum += w
	}
	if sum <= 0 {
		return nil, fmt.Errorf("replica: at least one replica needs a positive weight")
	}
	shares := make([]int, len(weights))
	rem := make([]float64, len(weights))
	assigned := 0
	for i, w := range weights {
		exact := float64(batch) * w / sum
		shares[i] = int(exact)
		rem[i] = exact - float64(shares[i])
		assigned += shares[i]
	}
	order := make([]int, 0, len(weights))
	for i, w := range weights {
		if w > 0 {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return rem[order[a]] > rem[order[b]] })
	for k := 0; assigned < batch; k++ {
		shares[order[k%len(order)]]++
		assigned++
	}
	return shares, nil
}

// DeriveWeights estimates each replica's throughput weight from its devices:
// a simulated device contributes its modeled batches-per-second for the base
// program (gpusim pricing), a CPU device its measured rate from a short
// warmup probe (warmupProbes timed runs after one warming run; minimum taken).  A
// replica's weight is the sum over its devices, crediting pipeline-sharded
// replicas with their extra stage throughput.  Devices are resolved through
// fault wrappers (runtime.SimOf), so a FaultDevice around a simulated device
// is still priced on its hardware model rather than probed.
func DeriveWeights(base *runtime.Program, devices [][]runtime.Device) []float64 {
	weights := make([]float64, len(devices))
	for i, devs := range devices {
		for _, d := range devs {
			if sd := runtime.SimOf(d); sd != nil {
				if us := sd.ModelProgramUS(base); us > 0 {
					weights[i] += 1e6 / us
				}
				continue
			}
			if sec := probeSeconds(base, d); sec > 0 {
				weights[i] += 1 / sec
			}
		}
	}
	return weights
}

// warmupProbes is the number of timed runs a CPU-device weight probe takes.
const warmupProbes = 2

// probeSeconds measures one warmed full-batch run of the base program on the
// device, returning the minimum of the timed runs in seconds.  A transiently
// faulty device (a FaultDevice schedule) gets a bounded number of extra
// attempts before the probe gives up and weights the replica 0 — a flaky
// device should start with its fair share and earn failover later, not be
// starved at construction.
func probeSeconds(base *runtime.Program, d runtime.Device) float64 {
	exec := runtime.NewExecutorOn(base, d)
	in := tensor.New(base.InputShape(), tensor.NCHW)
	out := tensor.New(base.OutputShape(), tensor.NCHW)
	warmed := false
	for attempt := 0; attempt < 3 && !warmed; attempt++ { // warm the arena pool
		warmed = exec.RunInto(in, out) == nil
	}
	if !warmed {
		return 0
	}
	best := math.Inf(1)
	for p, attempts := 0, 0; p < warmupProbes && attempts < warmupProbes+3; attempts++ {
		start := time.Now()
		if err := exec.RunInto(in, out); err != nil {
			continue
		}
		if sec := time.Since(start).Seconds(); sec < best {
			best = sec
		}
		p++
	}
	if math.IsInf(best, 1) {
		return 0
	}
	return best
}

// ParseDevices builds the device matrix for a replica fleet from a
// comma-separated hardware list: each entry is "titanblack", "titanx" or
// "cpu", assigned to replicas in order and cycled when the fleet is larger
// than the list ("titanblack,titanx" alternates the two models).  Every
// replica receives `stages` devices of its model, pipeline-sharding the
// replica when stages > 1.  An empty spec defaults to the paper's Titan
// Black for every replica.
func ParseDevices(spec string, replicas, stages int) ([][]runtime.Device, error) {
	if replicas <= 0 {
		return nil, fmt.Errorf("replica: replica count %d must be positive", replicas)
	}
	if stages <= 0 {
		stages = 1
	}
	models := []string{"titanblack"}
	if strings.TrimSpace(spec) != "" {
		models = strings.Split(spec, ",")
	}
	hw := map[string]*gpusim.Device{}
	out := make([][]runtime.Device, replicas)
	for r := 0; r < replicas; r++ {
		model := strings.ToLower(strings.TrimSpace(models[r%len(models)]))
		devs := make([]runtime.Device, stages)
		for s := 0; s < stages; s++ {
			label := fmt.Sprintf("r%d.%d", r, s)
			switch model {
			case "cpu":
				devs[s] = runtime.CPUDevice{}
			case "titanblack":
				if hw[model] == nil {
					hw[model] = gpusim.TitanBlack()
				}
				devs[s] = runtime.NewSimDevice(label, hw[model])
			case "titanx":
				if hw[model] == nil {
					hw[model] = gpusim.TitanX()
				}
				devs[s] = runtime.NewSimDevice(label, hw[model])
			default:
				return nil, fmt.Errorf("replica: unknown device model %q (want titanblack, titanx or cpu)", model)
			}
		}
		out[r] = devs
	}
	return out, nil
}
