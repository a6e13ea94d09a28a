package main

import (
	"fmt"
	"os"
	goruntime "runtime"
	"strconv"
	"strings"
	"time"

	"memcnn/internal/frameworks"
	"memcnn/internal/gpusim"
	"memcnn/internal/layout"
	"memcnn/internal/network"
	memruntime "memcnn/internal/runtime"
	_ "memcnn/internal/runtime/verify" // registers the checker Options.Verify runs
	"memcnn/internal/tensor"
)

// processStart is read as early as the program can, so that setup_s includes
// what the Go runtime and package initialisation cost.
var processStart = time.Now()

// startup is that cost: process start to the first line of main.
var startup time.Duration

// metrics maps a metric name to its value.
type metrics map[string]float64

// timing is what one timed region of a workload yields.
type timing struct {
	// latMS holds one time per run, per phase-A request (from the time the
	// request was due) or per training step.
	latMS []float64
	// images successful operations delivered during wall, the time spent in
	// operations (in phase B for the serving workload): the throughput.
	images int
	wall   time.Duration
	// Measured beside a host probe, latMS and wall are corrected to the
	// nominal host speed; rawMS and rawWall then hold the wall-clock figures
	// and probes the probe's readings.
	rawMS   []float64
	rawWall time.Duration
	probes  []float64
	// attempted and failed count operations.  failed holds errors, refusals
	// and non-finite losses; outputs that miss their reference are found
	// later by verify and added by the caller.
	attempted, failed int
	// allocs and allocBytes are heap allocations per operation over the
	// region (Go's MemStats, so they include the harness's own, which the
	// batch and training loops keep at zero in steady state).
	allocs, allocBytes float64
}

func (t timing) medianMS() float64 { return median(t.latMS) }

// joined is the two regions taken as one.
func (t timing) joined(o timing) timing {
	if ops := t.attempted + o.attempted; ops > 0 {
		wt, wo := float64(t.attempted)/float64(ops), float64(o.attempted)/float64(ops)
		t.allocs = wt*t.allocs + wo*o.allocs
		t.allocBytes = wt*t.allocBytes + wo*o.allocBytes
	}
	t.latMS = append(t.latMS, o.latMS...)
	t.rawMS = append(t.rawMS, o.rawMS...)
	t.probes = append(t.probes, o.probes...)
	t.images += o.images
	t.wall += o.wall
	t.rawWall += o.rawWall
	t.attempted += o.attempted
	t.failed += o.failed
	return t
}

// hostCorrect rescales a loop's operation times to the nominal host speed:
// operation i ran between probe readings i and i+1.
func (t *timing) hostCorrect(probes []float64) {
	t.rawMS = append([]float64(nil), t.latMS...)
	t.rawWall = t.wall
	t.probes = probes
	var sum float64
	for i := range t.latMS {
		t.latMS[i] *= hostFactor(probes[i], probes[i+1])
		sum += t.latMS[i]
	}
	t.wall = time.Duration(sum * float64(time.Millisecond))
}

// alternateRounds is how many times a traced run switches between its
// untraced and its traced region.
const alternateRounds = 3

// alternate runs a workload untraced for dBare and traced for dTraced, in
// rounds by turns.  This host's speed drifts by ten percent and more from one
// minute to the next; taken one after the other, the two regions' medians
// differ by that drift and say nothing about the tracing.
func alternate(w workload, dBare, dTraced time.Duration, tr *tracer) (bare, traced timing, err error) {
	for i := 0; i < alternateRounds; i++ {
		b, err := w.measure(dBare/alternateRounds, nil, nil)
		if err != nil {
			return bare, traced, err
		}
		t, err := w.measure(dTraced/alternateRounds, tr, nil)
		if err != nil {
			return bare, traced, err
		}
		bare, traced = bare.joined(b), traced.joined(t)
	}
	return bare, traced, nil
}

// workload is one of the benchmark's four ways of using the system.
type workload interface {
	// setup builds the system under test — network, plan, compiled and
	// verified program, executor, server or trainer — and runs the cold first
	// operation.  It returns the time from its call to that operation's
	// output, less the time the harness spent making inputs.
	setup() (time.Duration, error)
	// measure runs the workload's operations for d.  With a tracer it runs
	// them through the traced wrappers and records spans.  With a host probe
	// it runs the probe between operations, inside d, and corrects the
	// timing to the nominal host speed.
	measure(d time.Duration, tr *tracer, hp *hostProbe) (timing, error)
	// verify compares every output produced so far with the independent
	// reference and returns how many operations missed it.  It runs after the
	// timed regions because computing references allocates in this process.
	verify() (missed int, err error)
	// program is the compiled program the workload runs.
	program() *memruntime.Program
	// layers fills in the per-layer metrics of a traced run that lasts about
	// d, and returns the spans it recorded and the operations it timed.
	layers(m metrics, d time.Duration) ([]span, timing, error)
	// referenceMetrics adds the per-layer metrics that compare with the
	// reference implementation verify ran.
	referenceMetrics(m metrics)
}

// reservedOps is how many operations' bookkeeping the batch and training
// loops reserve before the clock starts, so that they allocate nothing while
// it runs: twenty-five times what a run_seconds region holds today.
const reservedOps = 1024

// workloadDef names a workload and says why it is in the benchmark.
type workloadDef struct {
	name string
	why  string
	// setupRuns is how many fresh processes set the workload up for one
	// setup_s value (their median); more for the set-ups that take
	// milliseconds, fewer for the one that takes seconds.
	setupRuns int
	// tailQ is the percentile latency_tail_ms reports: the highest of the
	// usual ones that has ten samples beyond it at the sample count a
	// run_seconds region gives the workload today (about 520 requests, or 40
	// runs or steps).  AlexNet's 9 runs support no percentile by that rule;
	// it reports the same one as the other loops.  It is fixed per workload,
	// not chosen from each run's count, so that every run reports the same
	// statistic.
	tailQ float64
	build func(seed uint64) workload
}

var workloadDefs = []workloadDef{
	{
		name:      "batch-lenet128",
		why:       "LeNet at batch 128, run back to back: direct/CHWN convolution (70% of a run) and pooling; GEMM is a fifth, FFT absent.",
		setupRuns: 3,
		tailQ:     0.75,
		build:     newBatchLeNet,
	},
	{
		name:      "batch-alexnet4",
		why:       "AlexNet at batch 4: five im2col+GEMM convolutions (69%), fully-connected layers (18%) and LRN (12%); no direct, no FFT.",
		setupRuns: 3,
		tailQ:     0.75,
		build:     newBatchAlexNet,
	},
	{
		name:      "serve-cifar8",
		why:       "Cifar10 at batch 8 behind the batching server, open loop at 40 req/s then 16 closed-loop callers: the only FFT convolution, queueing and padding.",
		setupRuns: 5,
		tailQ:     0.95,
		build:     newServeCifar,
	},
	{
		name:      "train-lenet16",
		why:       "LeNet training steps at batch 16: direct forward plus backward-data/backward-filter kernels and a weight refresh every step; no GEMM, no FFT.",
		setupRuns: 3,
		tailQ:     0.75,
		build:     newTrainLeNet,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, d := range workloadDefs {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

// compiled is a network taken through the same path netbench uses: the
// optimised planner on the Titan Black thresholds, then the compiler with
// algorithm selection and the static verifier on.
type compiled struct {
	net         *network.Network
	prog        *memruntime.Program
	planTime    time.Duration
	compileTime time.Duration
}

func compileNet(net *network.Network) (compiled, error) {
	t0 := time.Now()
	plan, err := frameworks.Optimized(layout.TitanBlackThresholds()).Plan(gpusim.TitanBlack(), net)
	if err != nil {
		return compiled{}, fmt.Errorf("planning %s: %w", net.Name, err)
	}
	t1 := time.Now()
	prog, err := memruntime.CompileWithOptions(plan, memruntime.Options{ConvAlgorithms: true, Verify: true})
	if err != nil {
		return compiled{}, fmt.Errorf("compiling %s: %w", net.Name, err)
	}
	return compiled{net: net, prog: prog, planTime: t1.Sub(t0), compileTime: time.Since(t1)}, nil
}

// allocCounter reads the heap allocation counters around a timed region.
type allocCounter struct{ before goruntime.MemStats }

func startAllocs() *allocCounter {
	c := &allocCounter{}
	goruntime.ReadMemStats(&c.before)
	return c
}

// perOp returns allocations and allocated bytes per operation since start.
func (c *allocCounter) perOp(ops int) (allocs, bytes float64) {
	var after goruntime.MemStats
	goruntime.ReadMemStats(&after)
	if ops == 0 {
		return 0, 0
	}
	return float64(after.Mallocs-c.before.Mallocs) / float64(ops),
		float64(after.TotalAlloc-c.before.TotalAlloc) / float64(ops)
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// closeTo is the benchmark's output check: |got-want| <= 1e-5 + 1e-3·|want| at
// every coordinate.
func closeTo(got, want *tensor.Tensor) bool {
	return tensor.RelClose(got, want, 1e-5, 1e-3)
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
