package runtime

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"memcnn/internal/obs"
	"memcnn/internal/tensor"
)

// ErrPipelineClosed is returned for batches submitted to a closed pipeline.
var ErrPipelineClosed = errors.New("runtime: pipeline closed")

// PipelineExecutor runs batches through the stages of a sharded program on the
// callers' goroutines: a batch walks the stages in order, holding one stage's
// lock at a time, so a stage runs one batch at a time while concurrent callers
// keep several batches in flight — batch N on stage 2 while batch N+1 runs on
// stage 1.  Each stage owns a per-stage arena pool (via its Executor) and a
// pool of boundary tensors carrying the one activation that crosses each cut;
// the boundary hand-off is a same-layout copy, so a pipelined run is
// bit-identical to the unsharded executor and to Program.ReferenceForward.
//
// RunInto is safe for concurrent use; concurrent callers fill the pipeline.
type PipelineExecutor struct {
	sp     *ShardedProgram
	stages []*pipeStage

	// mu is held shared by every run and exclusively by Close, so Close
	// waits for in-flight batches.
	mu     sync.RWMutex
	closed bool
}

// pipeStage is one stage: its executor, its lock and the pool of boundary
// tensors it hands to the next stage.
type pipeStage struct {
	idx  int
	exec *Executor

	// mu admits one batch at a time; it also guards obs.
	mu sync.Mutex

	// boundary pools output tensors in the stage's output layout; nil for
	// the last stage, which writes into the caller's destination.
	boundary *sync.Pool

	// lat is the stage's always-on batch latency in microseconds; its count
	// and sum are the stage's batch count and measured time, and Instrument
	// adopts it into the registry.
	lat *obs.Histogram

	// obs holds the stage's prebuilt span template when the pipeline is
	// traced; nil otherwise.
	obs *stageObs
}

// stageObs is one stage's trace hook, prepared once at Instrument time.
type stageObs struct {
	rec  *obs.Recorder
	span obs.Span
}

// NewPipelineExecutor builds the stage executors for a sharded program.  It
// starts nothing; Close only turns later batches away.
func NewPipelineExecutor(sp *ShardedProgram) *PipelineExecutor {
	pe := &PipelineExecutor{sp: sp}
	for i, st := range sp.Stages {
		ps := &pipeStage{idx: i, exec: NewExecutor(st.Prog), lat: obs.NewHistogram()}
		if i < len(sp.Stages)-1 {
			shape, layout := st.Prog.OutputShape(), st.Prog.Buffers[st.Prog.Output].Layout
			ps.boundary = &sync.Pool{New: func() any { return tensor.New(shape, layout) }}
		}
		pe.stages = append(pe.stages, ps)
	}
	return pe
}

// Instrument attaches an observer to the pipeline: stage i renders on trace
// lane laneBase+i (named "stage i"), each stage's executor records its op and
// run spans on the same lane, each batch crossing a stage records a stage
// span carrying the batch size, and the registry adopts each stage's
// always-on latency histogram as memcnn_stage_latency_us{net,stage}.  Call
// before submitting traffic; a zero Observer detaches the tracer (metric
// registrations persist).
func (pe *PipelineExecutor) Instrument(ob Observer, laneBase int32) {
	net := pe.sp.Base.Net.Name
	images := pe.sp.Base.InputShape().N
	for i, ps := range pe.stages {
		lane := laneBase + int32(i)
		ps.exec.Instrument(ob, lane)
		ob.Metrics.AdoptHistogram(metricStageLatency, "Per-pipeline-stage batch latency.",
			ps.lat, obs.L("net", net), obs.L("stage", fmt.Sprintf("%d", i)))
		var so *stageObs
		if ob.Trace != nil {
			ob.Trace.SetLane(lane, fmt.Sprintf("stage %d", i))
			so = &stageObs{
				rec: ob.Trace,
				span: obs.Span{
					Name:   fmt.Sprintf("stage %d", i),
					Cat:    obs.CatStage,
					Lane:   lane,
					Images: images,
				},
			}
		}
		ps.mu.Lock()
		ps.obs = so
		ps.mu.Unlock()
	}
}

// run executes one batch on the stage under its lock, timing it into the
// stage's histogram and, when traced, a stage span; holding the lock across
// the span keeps the spans on the stage's lane from overlapping.  A batch
// whose context is already done skips the stage; a panic inside the stage's
// executor comes back as the batch's error (the executor recovers it).
func (ps *pipeStage) run(ctx context.Context, in, out *tensor.Tensor) error {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return err
	}
	so := ps.obs
	var spanT0 int64
	if so != nil {
		spanT0 = so.rec.Now()
	}
	start := time.Now()
	err := ps.exec.RunIntoCtx(ctx, in, out)
	elapsed := time.Since(start)
	ps.lat.Observe(float64(elapsed) / 1e3)
	if so != nil {
		sp := so.span
		sp.StartNS = spanT0
		sp.DurNS = int64(elapsed)
		so.rec.Record(sp)
	}
	if err != nil {
		return fmt.Errorf("runtime: stage %d: %w", ps.idx, err)
	}
	return nil
}

// RunInto executes one batch through all stages, writing the result into dst.
// Submit batches from several goroutines to keep every stage busy.
func (pe *PipelineExecutor) RunInto(in, dst *tensor.Tensor) error {
	return pe.RunIntoCtx(context.Background(), in, dst)
}

// RunIntoCtx is RunInto honoring a context: a batch whose context is
// cancelled or past its deadline skips the stages it has not reached yet (and
// abandons the one it is on between ops) and fails with ctx.Err().  The call
// returns only once no stage touches dst any more, so cancellation stops work
// early but never races the destination buffer.
func (pe *PipelineExecutor) RunIntoCtx(ctx context.Context, in, dst *tensor.Tensor) error {
	base := pe.sp.Base
	if in.Shape != base.InputShape() {
		return fmt.Errorf("runtime: %s input shape %v, want %v", base.Net.Name, in.Shape, base.InputShape())
	}
	if dst.Shape != base.OutputShape() {
		return fmt.Errorf("runtime: %s output shape %v, want %v", base.Net.Name, dst.Shape, base.OutputShape())
	}
	pe.mu.RLock()
	defer pe.mu.RUnlock()
	if pe.closed {
		return ErrPipelineClosed
	}
	// cur is the batch's input to the next stage; prev is the pool it came
	// from, nil for the caller's input.
	cur, prev := in, (*sync.Pool)(nil)
	for _, ps := range pe.stages {
		out := dst
		if ps.boundary != nil {
			out = ps.boundary.Get().(*tensor.Tensor)
		}
		err := ps.run(ctx, cur, out)
		if prev != nil {
			prev.Put(cur)
		}
		if err != nil {
			if ps.boundary != nil {
				ps.boundary.Put(out)
			}
			return err
		}
		cur, prev = out, ps.boundary
	}
	return nil
}

// Close waits for in-flight batches; RunInto after Close returns
// ErrPipelineClosed.  It is idempotent.
func (pe *PipelineExecutor) Close() {
	pe.mu.Lock()
	pe.closed = true
	pe.mu.Unlock()
}

// PipelineStageStats reports one stage's observed cost.
type PipelineStageStats struct {
	Stage   int
	Batches uint64
	// MeasuredTotalUS is the wall time summed across Batches, MeasuredUS its
	// per-batch mean.
	MeasuredTotalUS float64
	MeasuredUS      float64
}

// Delta returns the stats covering only the batches s saw beyond an earlier
// snapshot prev of the same stage — how front-ends exclude cold-start or
// warm-up batches from reported steady-state means.
func (s PipelineStageStats) Delta(prev PipelineStageStats) PipelineStageStats {
	out := s
	out.Batches = s.Batches - prev.Batches
	out.MeasuredTotalUS = s.MeasuredTotalUS - prev.MeasuredTotalUS
	out.MeasuredUS = 0
	if out.Batches > 0 {
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
		s := PipelineStageStats{
			Stage:           i,
			Batches:         ps.lat.Count(),
			MeasuredTotalUS: ps.lat.Sum(),
		}
		if s.Batches > 0 {
			s.MeasuredUS = s.MeasuredTotalUS / float64(s.Batches)
		}
		out[i] = s
	}
	return out
}
