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

// ErrPipelineClosed is returned for batches submitted to a closed pipeline.
var ErrPipelineClosed = errors.New("runtime: pipeline closed")

// PipelineExecutor streams batches through the stages of a sharded program:
// one goroutine per stage, connected by bounded channels, so several batches
// are in flight at once — batch N on stage 2 while batch N+1 runs on stage 1.
// Each stage owns a per-stage arena pool (via its Executor) and a pool of
// boundary tensors carrying the one activation that crosses each cut; the
// boundary hand-off is a same-layout copy, so a pipelined run is bit-identical
// to the unsharded executor and to Program.ReferenceForward.
//
// RunInto is safe for concurrent use; concurrent callers fill the pipeline.
type PipelineExecutor struct {
	sp     *ShardedProgram
	stages []*pipeStage
	wg     sync.WaitGroup

	mu     sync.RWMutex
	closed bool
}

// pipeStage is one running stage: its executor, its inbound job queue and the
// pool of boundary tensors it hands to the next stage.
type pipeStage struct {
	idx  int
	exec *Executor
	in   chan *pipeJob
	next *pipeStage

	// boundary pools output tensors in the stage's output layout; nil for
	// the last stage, which writes into the caller's destination.
	boundary *sync.Pool
	// release returns a boundary tensor to this stage's pool; built once so
	// the steady-state batch flow allocates no closures.
	release func(t *tensor.Tensor)
	// transferInUS is the modeled cost of the cross-device transfer feeding
	// this stage, charged once per batch.
	transferInUS float64

	modeledNS  atomic.Int64
	measuredNS atomic.Int64
	jobs       atomic.Uint64

	// obs holds the stage's prebuilt span template and latency histogram when
	// the pipeline is instrumented; nil otherwise.  Atomic because the stage
	// goroutines are already running when Instrument is called.
	obs atomic.Pointer[stageObs]
}

// stageObs is one stage's instrumentation, prepared once at Instrument time.
type stageObs struct {
	rec  *obs.Recorder
	span obs.Span
	hist *obs.Histogram
}

// pipeJob is one batch moving through the pipeline.
type pipeJob struct {
	ctx     context.Context        // the submitting request's context
	cur     *tensor.Tensor         // input to the stage about to run
	release func(t *tensor.Tensor) // returns cur to its boundary pool (nil for the caller's input)
	dst     *tensor.Tensor         // final destination, written by the last stage
	done    chan error
}

// NewPipelineExecutor starts the stage goroutines for a sharded program.
// Close must be called to stop them.
func NewPipelineExecutor(sp *ShardedProgram) *PipelineExecutor {
	pe := &PipelineExecutor{sp: sp}
	for i, st := range sp.Stages {
		ps := &pipeStage{
			idx:  i,
			exec: NewExecutorOn(st.Prog, st.Device),
			in:   make(chan *pipeJob, 1),
		}
		if i > 0 {
			ps.transferInUS = st.Device.TransferInUS(st.TransferInBytes)
		}
		if i < len(sp.Stages)-1 {
			shape, layout := st.Prog.OutputShape(), st.Prog.Buffers[st.Prog.Output].Layout
			pool := &sync.Pool{New: func() any { return tensor.New(shape, layout) }}
			ps.boundary = pool
			ps.release = func(t *tensor.Tensor) { pool.Put(t) }
		}
		pe.stages = append(pe.stages, ps)
	}
	for i := 0; i < len(pe.stages)-1; i++ {
		pe.stages[i].next = pe.stages[i+1]
	}
	pe.wg.Add(len(pe.stages))
	for _, ps := range pe.stages {
		go pe.runStage(ps)
	}
	return pe
}

// Instrument attaches an observer to the pipeline: stage i renders on trace
// lane laneBase+i (named "<label>stage i"), each stage's executor records its
// op and run spans on the same lane, each batch crossing a stage records a
// stage span carrying the batch size and the stage's modeled time (including
// its inbound transfer), and per-stage latency histograms are registered
// under memcnn_stage_latency_us{net,stage}.  label prefixes lane names so
// multiple pipelines (replicas) stay distinguishable; it may be empty.
// Call before submitting traffic; a zero Observer detaches.
func (pe *PipelineExecutor) Instrument(ob Observer, laneBase int32, label string) {
	net := pe.sp.Base.Net.Name
	images := pe.sp.Base.InputShape().N
	for i, ps := range pe.stages {
		lane := laneBase + int32(i)
		if !ob.Enabled() {
			ps.obs.Store(nil)
			ps.exec.Instrument(Observer{}, lane)
			continue
		}
		ob.Trace.SetLane(lane, fmt.Sprintf("%sstage %d (%s)", label, i, pe.sp.Stages[i].Device.Name()))
		ps.exec.Instrument(ob, lane)
		ps.obs.Store(&stageObs{
			rec: ob.Trace,
			span: obs.Span{
				Name:   fmt.Sprintf("stage %d", i),
				Cat:    obs.CatStage,
				Lane:   lane,
				Images: images,
			},
			hist: ob.Metrics.Histogram(metricStageLatency,
				"Per-pipeline-stage batch latency.",
				obs.L("net", net), obs.L("stage", fmt.Sprintf("%d", i))),
		})
	}
}

// runStage drains one stage's job queue until the pipeline closes, forwarding
// each batch to the next stage (or completing it at the last).  A batch whose
// context is already cancelled skips the stage; a panic inside the stage's
// executor is contained into the batch's error (the executor recovers it),
// so a poisoned batch fails its own request and the stage goroutine keeps
// serving the next one.
func (pe *PipelineExecutor) runStage(ps *pipeStage) {
	defer pe.wg.Done()
	for job := range ps.in {
		if err := job.ctx.Err(); err != nil {
			// Cancelled while queued: don't burn the stage on a dead batch.
			if job.release != nil {
				job.release(job.cur)
			}
			job.done <- err
			continue
		}
		var out *tensor.Tensor
		if ps.next == nil {
			out = job.dst
		} else {
			out = ps.boundary.Get().(*tensor.Tensor)
		}
		so := ps.obs.Load()
		var spanT0 int64
		if so != nil {
			spanT0 = so.rec.Now()
		}
		start := time.Now()
		modeledUS, err := ps.exec.runModeled(job.ctx, job.cur, out)
		elapsed := time.Since(start)
		ps.measuredNS.Add(int64(elapsed))
		ps.modeledNS.Add(int64((modeledUS + ps.transferInUS) * 1e3))
		ps.jobs.Add(1)
		if so != nil {
			if so.rec != nil {
				sp := so.span
				sp.StartNS = spanT0
				sp.DurNS = int64(elapsed)
				sp.ModeledUS = modeledUS + ps.transferInUS
				so.rec.Record(sp)
			}
			so.hist.Observe(float64(elapsed) / 1e3)
		}
		if job.release != nil {
			job.release(job.cur)
		}
		if err != nil {
			if ps.next != nil {
				ps.boundary.Put(out)
			}
			job.done <- fmt.Errorf("runtime: stage %d: %w", ps.idx, err)
			continue
		}
		if ps.next == nil {
			job.done <- nil
			continue
		}
		job.cur, job.release = out, ps.release
		ps.next.in <- job
	}
	if ps.next != nil {
		close(ps.next.in)
	}
}

// RunInto executes one batch through all stages, writing the result into dst.
// It blocks until the batch has drained from the last stage; submit batches
// from several goroutines to keep every stage busy.
func (pe *PipelineExecutor) RunInto(in, dst *tensor.Tensor) error {
	return pe.RunIntoCtx(context.Background(), in, dst)
}

// RunIntoCtx is RunInto honoring a context: a batch whose context is
// cancelled or past its deadline skips the stages it has not reached yet (and
// abandons the one it is on between ops) and fails with ctx.Err().  The call
// still blocks until the batch has drained from the pipeline — dst may not be
// written concurrently with the caller reclaiming it — so cancellation stops
// work early but never races the destination buffer.
func (pe *PipelineExecutor) RunIntoCtx(ctx context.Context, in, dst *tensor.Tensor) error {
	base := pe.sp.Base
	if in.Shape != base.InputShape() {
		return fmt.Errorf("runtime: %s input shape %v, want %v", base.Net.Name, in.Shape, base.InputShape())
	}
	if dst.Shape != base.OutputShape() {
		return fmt.Errorf("runtime: %s output shape %v, want %v", base.Net.Name, dst.Shape, base.OutputShape())
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	job := &pipeJob{ctx: ctx, cur: in, dst: dst, done: make(chan error, 1)}
	pe.mu.RLock()
	if pe.closed {
		pe.mu.RUnlock()
		return ErrPipelineClosed
	}
	pe.stages[0].in <- job
	pe.mu.RUnlock()
	return <-job.done
}

// Close stops the stage goroutines after in-flight batches drain.  It is
// idempotent; RunInto after Close returns ErrPipelineClosed.
func (pe *PipelineExecutor) Close() {
	pe.mu.Lock()
	if pe.closed {
		pe.mu.Unlock()
		return
	}
	pe.closed = true
	close(pe.stages[0].in)
	pe.mu.Unlock()
	pe.wg.Wait()
}

// PipelineStageStats reports one stage's shape and observed cost.
type PipelineStageStats struct {
	Stage           int
	Device          string
	Ops             int
	ArenaBytes      int64
	TransferInBytes int64
	Batches         uint64
	// ModeledTotalUS and MeasuredTotalUS are cumulative across Batches:
	// modeled device time (including the stage's inbound transfer; zero on
	// unmodeled devices) and measured wall time.
	ModeledTotalUS  float64
	MeasuredTotalUS float64
	// ModeledUS and MeasuredUS are the per-batch means of the totals.
	ModeledUS  float64
	MeasuredUS float64
}

// Delta returns the stats covering only the batches s saw beyond an earlier
// snapshot prev of the same stage — how front-ends exclude cold-start or
// warm-up batches from reported steady-state means.
func (s PipelineStageStats) Delta(prev PipelineStageStats) PipelineStageStats {
	out := s
	out.Batches = s.Batches - prev.Batches
	out.ModeledTotalUS = s.ModeledTotalUS - prev.ModeledTotalUS
	out.MeasuredTotalUS = s.MeasuredTotalUS - prev.MeasuredTotalUS
	out.ModeledUS, out.MeasuredUS = 0, 0
	if out.Batches > 0 {
		out.ModeledUS = out.ModeledTotalUS / float64(out.Batches)
		out.MeasuredUS = out.MeasuredTotalUS / float64(out.Batches)
	}
	return out
}

// StageStats snapshots per-stage counters.  Counters are read individually,
// so a snapshot taken while traffic is in flight is consistent only per
// field; snapshot quiescent pipelines (or difference two snapshots with
// Delta) for exact accounting.
func (pe *PipelineExecutor) StageStats() []PipelineStageStats {
	out := make([]PipelineStageStats, len(pe.stages))
	for i, ps := range pe.stages {
		st := pe.sp.Stages[i]
		s := PipelineStageStats{
			Stage:           i,
			Device:          st.Device.Name(),
			Ops:             st.Ops(),
			ArenaBytes:      st.Prog.Mem.PeakBytes(),
			TransferInBytes: st.TransferInBytes,
			Batches:         ps.jobs.Load(),
			ModeledTotalUS:  float64(ps.modeledNS.Load()) / 1e3,
			MeasuredTotalUS: float64(ps.measuredNS.Load()) / 1e3,
		}
		if s.Batches > 0 {
			s.ModeledUS = s.ModeledTotalUS / float64(s.Batches)
			s.MeasuredUS = s.MeasuredTotalUS / float64(s.Batches)
		}
		out[i] = s
	}
	return out
}
