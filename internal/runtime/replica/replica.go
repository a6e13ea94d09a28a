// Package replica schedules data-parallel execution of a compiled program: a
// Group clones the program across N devices — shared read-only weights, one
// arena pool per replica — and serves each incoming batch by splitting it
// into per-replica sub-batches, running them concurrently and reassembling
// the outputs bit-identically to a single-device run.
//
// Each replica is one executor on one device.  Its slice of the batch is
// proportional to its weight: Config.Weights when the caller sets one,
// otherwise 1 per replica, so the default split is even and never comes from
// a timing probe or a modeled GPU.
//
// Bit-identical reassembly rests on two properties the rest of the runtime
// already guarantees: every layer processes images independently with a fixed
// per-image accumulation order (so a sub-batch computes exactly the rows of
// the full batch it was handed), and per-replica programs come from
// Program.WithBatch, which lowers the base program's own per-layer layouts at
// the sub-batch size (selection would otherwise go by the smaller sub-batch
// shape).
//
// # Fault tolerance
//
// The group survives its replicas: a sub-batch that fails is retried on the
// same replica under capped exponential backoff (maxRetries, retryBase,
// retryMax); a replica that exhausts its retries is marked
// runtime.Unhealthy, taken out of rotation, and the batch split is re-derived
// over the surviving replicas' original weights — the whole batch then re-runs
// on the new topology, so whatever the group answers is still bit-identical
// to the single-device run (rows are image-independent and deterministic,
// never partially stitched across topologies).  Unhealthy replicas are probed
// in the background (every probeInterval) and re-admitted — with another
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
	// Devices assigns each replica its device, one per replica.  nil runs
	// every replica on the host CPU.
	Devices []runtime.Device
	// Weights fixes the per-replica weights explicitly (len must equal the
	// replica count; weights must be non-negative with a positive sum, and a
	// replica weighted 0 receives no images).  When nil each replica weighs 1.
	Weights []float64
}

// The group's fault policy.  A failed sub-batch is re-run on the same
// replica up to maxRetries times, the first retry after retryBase and each
// further one after twice the last wait, capped at retryMax; a replica that
// still fails is marked unhealthy and its batch fails over to the survivors.
// Unhealthy replicas are probed for re-admission every probeInterval.
const (
	maxRetries    = 2
	retryBase     = time.Millisecond
	retryMax      = 50 * time.Millisecond
	probeInterval = 25 * time.Millisecond
)

// Group replicates a compiled program across devices and implements
// runtime.Runner by scattering each batch over the replicas.  RunInto is safe
// for concurrent use: every call slices its own sub-batch views and each
// replica's executor draws a private arena instance per run.  The group is
// also a runtime.FaultReporter; see the package comment for the failover
// behaviour.
type Group struct {
	base     *runtime.Program
	units    []*unit
	weights  []float64 // original configured or default weights, by replica
	inShape  tensor.Shape
	outShape tensor.Shape

	// topo is the current batch split; swapped whole on failover and
	// re-admission so in-flight batches keep a consistent view.
	topo atomic.Pointer[topology]

	mu     sync.Mutex // serialises topology rebuilds and Close
	closed atomic.Bool

	probeStop chan struct{}
	probeWG   sync.WaitGroup

	retries      atomic.Uint64
	failovers    atomic.Uint64
	readmissions atomic.Uint64
	panics       atomic.Uint64

	// obsv is the group's instrumentation (nil when uninstrumented).  Atomic
	// because executors are built lazily under each unit's lock — a failover
	// rebuild compiling a new executor must see the observer without taking a
	// group-wide lock on the batch path.
	obsv atomic.Pointer[groupObs]
}

// groupObs is the group's prepared instrumentation: the shared observer and
// the per-replica sub-batch span templates.
type groupObs struct {
	ob    runtime.Observer
	spans []obs.Span
}

// topology is one immutable batch split over the units: the per-unit image
// counts, their row offsets and the executors compiled for those shares (nil
// for idle units).
type topology struct {
	shares  []int
	offsets []int
	execs   []*runtime.Executor
}

// unit is one replica: its device, health, and the executors built for the
// sub-batch sizes it has served (one compiled program per distinct share,
// cached — failover changes a replica's share, and re-deriving the split
// must not recompile programs on the hot path more than once per size).
type unit struct {
	index  int
	device runtime.Device

	healthy atomic.Bool

	mu    sync.Mutex
	execs map[int]*runtime.Executor // share -> executor

	// lat is the replica's always-on sub-batch wall latency in microseconds
	// (retries included); its count and sum are the replica's batch count
	// and measured time, and Instrument adopts it into the registry.
	lat      *obs.Histogram
	failures atomic.Uint64
}

// lane returns the replica's trace lane.
func (u *unit) lane() int32 { return runtime.LaneEngine + int32(u.index) }

// instrument attaches (or with a zero observer detaches) one of the unit's
// executors to the replica's trace lane.
func (u *unit) instrument(e *runtime.Executor, ob runtime.Observer) {
	if ob.Trace != nil {
		ob.Trace.SetLane(u.lane(), fmt.Sprintf("replica %d (%s)", u.index, u.device.Name()))
	}
	e.Instrument(ob, u.lane())
}

// NewGroup builds a replica group for a compiled program.  Close must be
// called to stop the background prober.
func NewGroup(base *runtime.Program, replicas int, cfg Config) (*Group, error) {
	if base == nil {
		return nil, fmt.Errorf("replica: cannot replicate a nil program")
	}
	if replicas <= 0 {
		return nil, fmt.Errorf("replica: replica count %d must be positive", replicas)
	}
	if cfg.Devices != nil && len(cfg.Devices) != replicas {
		return nil, fmt.Errorf("replica: %d devices for %d replicas", len(cfg.Devices), replicas)
	}
	weights := cfg.Weights
	if weights == nil {
		weights = make([]float64, replicas)
		for i := range weights {
			weights[i] = 1
		}
	}
	if len(weights) != replicas {
		return nil, fmt.Errorf("replica: %d weights for %d replicas", len(weights), replicas)
	}

	g := &Group{
		base:      base,
		weights:   append([]float64(nil), weights...),
		inShape:   base.InputShape(),
		outShape:  base.OutputShape(),
		probeStop: make(chan struct{}),
	}
	for i := 0; i < replicas; i++ {
		var dev runtime.Device = runtime.CPUDevice{}
		if cfg.Devices != nil {
			dev = cfg.Devices[i]
		}
		u := &unit{index: i, device: dev, execs: map[int]*runtime.Executor{}, lat: obs.NewHistogram()}
		u.healthy.Store(true)
		g.units = append(g.units, u)
	}
	topo, err := g.deriveTopology()
	if err != nil {
		g.Close()
		return nil, err
	}
	g.topo.Store(topo)
	g.probeWG.Add(1)
	go g.probeLoop()
	return g, nil
}

// deriveTopology computes the batch split over the currently healthy units
// (using their original weights) and looks up, compiling on first use, the
// executor of every unit that receives images.
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
	n := len(shares)
	topo := &topology{shares: shares, offsets: make([]int, n), execs: make([]*runtime.Executor, n)}
	offset := 0
	for i, share := range shares {
		topo.offsets[i] = offset
		offset += share
		if share > 0 {
			if topo.execs[i], err = g.units[i].executor(g, share); err != nil {
				return nil, err
			}
		}
	}
	return topo, nil
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

// executor returns the unit's executor for a sub-batch of the given share,
// compiling it (the base's layouts, over the base
// network's shared weights) and caching it on first use.  A freshly built
// executor inherits the group's instrumentation — failover and re-admission
// compile new shares on the hot path, and their spans must not silently
// vanish.
func (u *unit) executor(g *Group, share int) (*runtime.Executor, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if e, ok := u.execs[share]; ok {
		return e, nil
	}
	prog, err := g.base.WithBatch(share)
	if err != nil {
		return nil, fmt.Errorf("replica %d: %w", u.index, err)
	}
	e := runtime.NewExecutorOn(prog, u.device)
	if gob := g.obsv.Load(); gob != nil {
		u.instrument(e, gob.ob)
	}
	u.execs[share] = e
	return e, nil
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

// RunInto implements runtime.Runner: the batch is scattered across the
// replicas, the sub-batches run concurrently, and the outputs land in dst
// exactly where a single-device run would put them.
func (g *Group) RunInto(in, dst *tensor.Tensor) error {
	return g.RunIntoCtx(context.Background(), in, dst)
}

// RunIntoCtx is RunInto honoring a context: cancellation propagates into
// every replica's sub-batch (between ops) and
// suppresses retries and failover — a deadline-expired batch fails with
// ctx.Err() instead of burning the survivors on work nobody is waiting for.
// Sub-batches are row slices of the NCHW linearisation, so in and dst must
// both be NCHW.
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
	if in.Layout != tensor.NCHW || dst.Layout != tensor.NCHW {
		return fmt.Errorf("replica: input in %v and output in %v, want both in NCHW", in.Layout, dst.Layout)
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
		errs := g.runTopology(ctx, topo, in, dst)
		lastErr = errors.Join(errs...)
		if lastErr == nil {
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
		go func(u *unit, e *runtime.Executor, subIn, subOut *tensor.Tensor) {
			defer wg.Done()
			if err := g.runUnit(ctx, u, e, subIn, subOut); err != nil {
				errs[u.index] = fmt.Errorf("replica %d: %w", u.index, err)
			}
		}(u, topo.execs[i], subIn, subOut)
	}
	wg.Wait()
	return errs
}

// runUnit runs one sub-batch on one replica, retrying under backoff on
// failure.  Panics have already been contained into *runtime.PanicError by
// the executor; they are counted here and treated like any other failure.
// Cancellation suppresses retries.
func (g *Group) runUnit(ctx context.Context, u *unit, e *runtime.Executor, in, out *tensor.Tensor) error {
	delay := retryBase
	for attempt := 0; ; attempt++ {
		gob := g.obsv.Load()
		var t0 int64
		if gob != nil && gob.ob.Trace != nil {
			t0 = gob.ob.Trace.Now()
		}
		start := time.Now()
		err := e.RunIntoCtx(ctx, in, out)
		elapsed := time.Since(start)
		u.lat.Observe(float64(elapsed) / 1e3)
		if gob != nil && gob.ob.Trace != nil {
			sp := gob.spans[u.index]
			sp.StartNS, sp.DurNS, sp.Images = t0, int64(elapsed), in.Shape.N
			gob.ob.Trace.Record(sp)
		}
		if err == nil {
			return nil
		}
		u.failures.Add(1)
		var pe *runtime.PanicError
		if errors.As(err, &pe) {
			g.panics.Add(1)
		}
		if ctx.Err() != nil || attempt >= maxRetries {
			return err
		}
		g.retries.Add(1)
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return ctx.Err()
		case <-g.probeStop:
			return ErrGroupClosed
		}
		delay = min(2*delay, retryMax)
	}
}

// probeLoop periodically probes unhealthy replicas with a one-image run and
// re-admits those whose probe succeeds, re-deriving the topology to hand them
// traffic again.
func (g *Group) probeLoop() {
	defer g.probeWG.Done()
	ticker := time.NewTicker(probeInterval)
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

// probeUnit runs one sub-batch through the replica's smallest cached
// executor (compiling a one-image executor if it has none) and reports
// success.  A dead device fails the probe immediately; a transiently faulty
// one eventually passes.
func (g *Group) probeUnit(u *unit) bool {
	u.mu.Lock()
	share := -1
	for s := range u.execs {
		if share == -1 || s < share {
			share = s
		}
	}
	u.mu.Unlock()
	if share == -1 {
		share = 1
	}
	e, err := u.executor(g, share)
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
		return e.RunIntoCtx(context.Background(), in, out)
	}()
	return err == nil
}

// Close stops the background prober.  It is idempotent; RunInto after Close
// returns ErrGroupClosed.
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
}

// Instrument attaches an observer to the group: every sub-batch records a
// replica span (with its share) on the replica's trace lane — replica r
// renders on lane LaneEngine+r, next to the run and op spans of its
// executors — and the registry adopts each replica's always-on latency
// histogram and exports its batch and failure counters.  All executors
// already compiled are instrumented, and executors compiled later (failover
// shares, probe executors) inherit the observer.  Call before serving
// traffic; a zero Observer detaches the tracer (metric registrations
// persist).
func (g *Group) Instrument(ob runtime.Observer) {
	var gob *groupObs
	if ob.Enabled() {
		gob = &groupObs{ob: ob}
		netL := obs.L("net", g.base.Net.Name)
		for i, u := range g.units {
			rL := obs.L("replica", fmt.Sprintf("%d", i))
			gob.spans = append(gob.spans, obs.Span{
				Name: fmt.Sprintf("replica %d", i),
				Cat:  obs.CatReplica,
				Lane: u.lane(),
			})
			u := u
			ob.Metrics.AdoptHistogram("memcnn_replica_latency_us",
				"Per-replica sub-batch wall latency.", u.lat, netL, rL)
			ob.Metrics.CounterFunc("memcnn_replica_batches_total",
				"Sub-batch runs per replica (including retries).",
				func() float64 { return float64(u.lat.Count()) }, netL, rL)
			ob.Metrics.CounterFunc("memcnn_replica_failures_total",
				"Failed sub-batch runs per replica.",
				func() float64 { return float64(u.failures.Load()) }, netL, rL)
		}
	}
	g.obsv.Store(gob)
	for _, u := range g.units {
		u.mu.Lock()
		for _, e := range u.execs {
			u.instrument(e, ob)
		}
		u.mu.Unlock()
	}
}

// Stats reports one replica's share and observed cost.
type Stats struct {
	Replica int
	Device  string
	Weight  float64
	Share   int
	Health  string
	Batches uint64
	// Failures counts sub-batch runs (including retries) that returned an
	// error.
	Failures uint64
	// MeasuredUS is the mean measured wall time per sub-batch.
	MeasuredUS float64
}

// ReplicaStats snapshots per-replica counters under the current topology.
func (g *Group) ReplicaStats() []Stats {
	topo := g.topo.Load()
	out := make([]Stats, len(g.units))
	for i, u := range g.units {
		health := runtime.Healthy
		if !u.healthy.Load() {
			health = runtime.Unhealthy
		}
		s := Stats{
			Replica:  i,
			Device:   u.device.Name(),
			Weight:   g.weights[i],
			Share:    topo.shares[i],
			Health:   health.String(),
			Batches:  u.lat.Count(),
			Failures: u.failures.Load(),
		}
		if s.Batches > 0 {
			s.MeasuredUS = u.lat.Sum() / float64(s.Batches)
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

// ParseDevices builds a replica fleet from a comma-separated device list, one
// device per replica.  The one device is "cpu", the host every op runs on, and
// an empty spec means it.  The paper's GPUs price ops but run none:
// "titanblack" and "titanx" are rejected, as the model-only views they belong
// to are `netbench -device`'s.  A replica is one executor, so stages above 1
// are rejected too: pipeline one program across stages, or replicate it.
func ParseDevices(spec string, replicas, stages int) ([]runtime.Device, error) {
	if replicas <= 0 {
		return nil, fmt.Errorf("replica: replica count %d must be positive", replicas)
	}
	if stages > 1 {
		return nil, fmt.Errorf("replica: a replica is one executor, not %d pipeline stages: pipeline with -devices, or replicate with -replicas", stages)
	}
	if strings.TrimSpace(spec) != "" {
		for _, name := range strings.Split(spec, ",") {
			switch name = strings.ToLower(strings.TrimSpace(name)); name {
			case "cpu":
			case "titanblack", "titanx":
				return nil, fmt.Errorf("replica: %s is a GPU model, which is model-only: it runs nothing, see netbench -device", name)
			default:
				return nil, fmt.Errorf("replica: unknown device %q (want cpu)", name)
			}
		}
	}
	out := make([]runtime.Device, replicas)
	for r := range out {
		out[r] = runtime.CPUDevice{}
	}
	return out, nil
}
