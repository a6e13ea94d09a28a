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
// callers' goroutines.  A batch takes one instance of the base program's arena
// and runs every stage's op range over it, so nothing is copied at a cut and
// a pipelined run executes exactly the ops of the unsharded executor: it is
// bit-identical to it and to Program.ReferenceForward.  Each stage has a lock
// and runs one batch at a time.  A batch takes its arena under stage 0's lock
// and walks the stages hand over hand, taking stage s+1's lock before it
// releases stage s's, and returns the arena before it releases the last lock.
// So concurrent callers keep several batches in flight — batch N on stage 2
// while batch N+1 runs on stage 1 — and at most one arena per stage is live.
//
// RunInto is safe for concurrent use; concurrent callers fill the pipeline.
type PipelineExecutor struct {
	sp     *ShardedProgram
	pool   *Pool
	stages []*pipeStage

	// mu is held shared by every run and exclusively by Close, so Close
	// waits for in-flight batches.
	mu     sync.RWMutex
	closed bool
}

// pipeStage is one stage: its op range and its lock.
type pipeStage struct {
	idx         int
	first, last int

	// mu admits one batch at a time; it also guards eo and span.
	mu sync.Mutex

	// lat is the stage's always-on batch latency in microseconds; its count
	// and sum are the stage's batch count and measured time, and Instrument
	// adopts it into the registry.
	lat *obs.Histogram

	// eo is the stage's op and run instrumentation, nil when uninstrumented;
	// span is its stage span template, recorded when eo traces.
	eo   *execObs
	span obs.Span
}

// NewPipelineExecutor builds the stages of a sharded program over one pool of
// base-program arenas.  It starts nothing; Close only turns later batches
// away.
func NewPipelineExecutor(sp *ShardedProgram) *PipelineExecutor {
	pe := &PipelineExecutor{sp: sp, pool: NewPool(sp.Base)}
	for i, st := range sp.Stages {
		pe.stages = append(pe.stages, &pipeStage{idx: i, first: st.FirstOp, last: st.LastOp, lat: obs.NewHistogram()})
	}
	return pe
}

// Instrument attaches an observer to the pipeline: stage i renders on trace
// lane laneBase+i (named "stage i"), where it records its op spans and a run
// span per batch, each batch crossing a stage records a stage span carrying
// the batch size, and the registry adopts each stage's always-on latency
// histogram as memcnn_stage_latency_us{net,stage}.  Call before submitting
// traffic; a zero Observer detaches the tracer (metric registrations
// persist).
func (pe *PipelineExecutor) Instrument(ob Observer, laneBase int32) {
	base := pe.sp.Base
	for i, ps := range pe.stages {
		lane := laneBase + int32(i)
		ob.Metrics.AdoptHistogram(metricStageLatency, "Per-pipeline-stage batch latency.",
			ps.lat, obs.L("net", base.Net.Name), obs.L("stage", fmt.Sprintf("%d", i)))
		var eo *execObs
		if ob.Enabled() {
			eo = newExecObs(base, ob, lane)
		}
		if ob.Trace != nil {
			ob.Trace.SetLane(lane, fmt.Sprintf("stage %d", i))
		}
		ps.mu.Lock()
		ps.eo = eo
		ps.span = obs.Span{Name: fmt.Sprintf("stage %d", i), Cat: obs.CatStage, Lane: lane, Images: base.InputShape().N}
		ps.mu.Unlock()
	}
}

// run executes the stage's op range of one batch over inst, staging in first
// and delivering into dst last when they are not nil.  The caller holds the
// stage lock.  It times the stage into its histogram and, when traced, a
// stage span; holding the lock across the span keeps the spans on the
// stage's lane from overlapping.  A batch whose context is already done
// skips the stage; a panic inside it comes back as the batch's error.
func (ps *pipeStage) run(ctx context.Context, inst *Instance, in, dst *tensor.Tensor) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	traced := ps.eo != nil && ps.eo.rec != nil
	var spanT0 int64
	if traced {
		spanT0 = ps.eo.rec.Now()
	}
	start := time.Now()
	err := inst.run(ctx, CPUDevice{}, ps.eo, ps.first, ps.last, in, dst)
	elapsed := time.Since(start)
	ps.lat.Observe(float64(elapsed) / 1e3)
	if traced {
		sp := ps.span
		sp.StartNS = spanT0
		sp.DurNS = int64(elapsed)
		ps.eo.rec.Record(sp)
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
// abandons the one it is on between ops) and fails with ctx.Err().  dst is
// written only by the last stage's final delivery, so on any error its
// contents are unchanged.
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
	ps := pe.stages[0]
	ps.mu.Lock()
	inst, err := pe.pool.Get()
	for i := 0; err == nil && i < len(pe.stages); i++ {
		if i > 0 {
			next := pe.stages[i]
			next.mu.Lock()
			ps.mu.Unlock()
			ps = next
		}
		var stageIn, stageOut *tensor.Tensor
		if i == 0 {
			stageIn = in
		}
		if i == len(pe.stages)-1 {
			stageOut = dst
		}
		err = ps.run(ctx, inst, stageIn, stageOut)
	}
	pe.pool.Put(inst)
	ps.mu.Unlock()
	return err
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
