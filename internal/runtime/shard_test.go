package runtime_test

import (
	goruntime "runtime"
	"testing"

	"memcnn/internal/network"
	"memcnn/internal/runtime"
	"memcnn/internal/tensor"
	"memcnn/internal/workloads"
)

// TestShardStructureProperty shards every supported network (TinyNet plus the
// five paper models, the latter compiled under the paper's optimiser, with
// and without convolution algorithm selection) across 1–4 devices and checks
// the structural invariants of every sharding: the stage count, and stages
// that are contiguous and cover the op list exactly once.
func TestShardStructureProperty(t *testing.T) {
	tiny, err := workloads.TinyNet()
	if err != nil {
		t.Fatal(err)
	}
	nets, err := workloads.Networks()
	if err != nil {
		t.Fatal(err)
	}
	progs := map[string]*runtime.Program{
		"TinyNet": mustCompileOpts(t, planners()[2], tiny, runtime.Options{}),
	}
	for _, name := range workloads.NetworkOrder {
		progs[name] = mustCompile(t, planners()[2], nets[name])
		progs[name+"/selected"] = mustCompileOpts(t, planners()[2], nets[name],
			runtime.Options{ConvAlgorithms: true})
	}

	for name, prog := range progs {
		for devices := 1; devices <= 4; devices++ {
			sp, err := runtime.Shard(prog, devices, runtime.ShardOptions{})
			if err != nil {
				t.Fatalf("%s/%d: %v", name, devices, err)
			}
			if len(sp.Stages) != devices && len(sp.Stages) != len(prog.Ops) {
				t.Errorf("%s/%d: %d stages", name, devices, len(sp.Stages))
			}
			next := 0
			for i, st := range sp.Stages {
				if st.FirstOp != next || st.LastOp < st.FirstOp {
					t.Fatalf("%s/%d: stage %d spans [%d,%d], want to start at %d",
						name, devices, i, st.FirstOp, st.LastOp, next)
				}
				next = st.LastOp + 1
			}
			if next != len(prog.Ops) {
				t.Errorf("%s/%d: stages cover %d of %d ops", name, devices, next, len(prog.Ops))
			}
		}
	}
}

// shardedGoldenCase is one network of the sharded-equivalence suite.  The
// functional forward is the cost driver (the structural property test above
// already covers every network at 1–4 devices), so only TinyNet executes at
// every device count with a recycled-arena rerun; the larger nets run once at
// the device counts listed.
type shardedGoldenCase struct {
	name    string
	net     *network.Network
	opts    runtime.Options
	devices []int
	rerun   bool
}

// TestShardedGoldenEquivalence pipelines every affordable network across 1–4
// stages and checks the stitched stage outputs are bit-identical
// to the unsharded executor (which the golden suite already holds to the
// functional references).  The ImageNet-scale configuration rides through
// AlexNet at batch 4 with algorithm selection, as in the golden suite.
func TestShardedGoldenEquivalence(t *testing.T) {
	tiny, err := workloads.TinyNet()
	if err != nil {
		t.Fatal(err)
	}
	cases := []shardedGoldenCase{{name: "TinyNet", net: tiny, devices: []int{1, 2, 3, 4}, rerun: true}}
	if !testing.Short() {
		nets, err := workloads.Networks()
		if err != nil {
			t.Fatal(err)
		}
		alexSmall, err := workloads.AlexNetWithBatch(4)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases,
			shardedGoldenCase{
				name: "LeNet", net: nets["LeNet"],
				opts: runtime.Options{ConvAlgorithms: true}, devices: []int{2},
			},
			shardedGoldenCase{
				name: "AlexNet@4", net: alexSmall,
				opts: runtime.Options{ConvAlgorithms: true}, devices: []int{2, 3},
			},
		)
	}
	for _, tc := range cases {
		prog := mustCompileOpts(t, planners()[2], tc.net, tc.opts)
		in := tensor.Random(prog.InputShape(), tensor.NCHW, 23)
		want, err := runBatch(runtime.NewExecutor(prog), in, prog.OutputShape())
		if err != nil {
			t.Fatalf("%s: unsharded run: %v", tc.name, err)
		}
		for _, devices := range tc.devices {
			sp, err := runtime.Shard(prog, devices, runtime.ShardOptions{})
			if err != nil {
				t.Fatalf("%s/%d: %v", tc.name, devices, err)
			}
			pe := runtime.NewPipelineExecutor(sp)
			got, err := runBatch(pe, in, prog.OutputShape())
			if err != nil {
				pe.Close()
				t.Fatalf("%s/%d: pipelined run: %v", tc.name, devices, err)
			}
			requireBitEqual(t, tc.name+"/sharded", got, want)
			batches := uint64(1)
			if tc.rerun {
				// A second batch through the recycled arena must be
				// identical.
				again, err := runBatch(pe, in, prog.OutputShape())
				if err != nil {
					pe.Close()
					t.Fatalf("%s/%d: pipelined rerun: %v", tc.name, devices, err)
				}
				requireBitEqual(t, tc.name+"/sharded rerun", again, want)
				batches = 2
			}
			for _, st := range pe.StageStats() {
				if st.Batches != batches {
					t.Errorf("%s/%d: stage %d saw %d batches, want %d", tc.name, devices, st.Stage, st.Batches, batches)
				}
			}
			t.Logf("%s across %d device(s): one %.2f MiB arena per batch in flight",
				tc.name, len(sp.Stages), float64(prog.Mem.PeakBytes())/(1<<20))
			pe.Close()
		}
	}
}

// batchRunner runs one batch into a caller-provided output.
type batchRunner interface {
	RunInto(in, dst *tensor.Tensor) error
}

// runBatch runs one batch through r's RunInto into a fresh output of shape
// out, in the input's layout.
func runBatch(r batchRunner, in *tensor.Tensor, out tensor.Shape) (*tensor.Tensor, error) {
	dst := tensor.New(out, in.Layout)
	if err := r.RunInto(in, dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// TestPipelineLifecycle covers close semantics and input validation.
func TestPipelineLifecycle(t *testing.T) {
	tiny, err := workloads.TinyNet()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compileFixedLayout(tiny, tensor.NCHW, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := runtime.Shard(prog, 2, runtime.ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pe := runtime.NewPipelineExecutor(sp)
	bad := tensor.New(tensor.Shape{N: 1, C: 1, H: 12, W: 12}, tensor.NCHW)
	if _, err := runBatch(pe, bad, prog.OutputShape()); err == nil {
		t.Error("wrong input shape must be rejected")
	}
	in := tensor.Random(prog.InputShape(), tensor.NCHW, 3)
	if _, err := runBatch(pe, in, prog.OutputShape()); err != nil {
		t.Fatal(err)
	}
	pe.Close()
	pe.Close() // idempotent
	if _, err := runBatch(pe, in, prog.OutputShape()); err != runtime.ErrPipelineClosed {
		t.Errorf("Run after Close returned %v, want ErrPipelineClosed", err)
	}
}

// TestPipelineAddsNoAllocations checks that walking the stages costs no
// allocation per batch: at one worker, a two-stage pipelined run allocates no
// more than the single executor running the same program.
func TestPipelineAddsNoAllocations(t *testing.T) {
	nets, err := workloads.Networks()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := mustCompile(t, planners()[2], nets["LeNet"]).WithBatch(8)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := runtime.Shard(prog, 2, runtime.ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pe := runtime.NewPipelineExecutor(sp)
	defer pe.Close()
	in := tensor.Random(prog.InputShape(), tensor.NCHW, 5)
	dst := tensor.New(prog.OutputShape(), tensor.NCHW)

	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	allocs := func(r batchRunner) float64 {
		// Warm the arena and boundary pools so the measured runs reuse them.
		for i := 0; i < 2; i++ {
			if err := r.RunInto(in, dst); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(20, func() {
			if err := r.RunInto(in, dst); err != nil {
				t.Fatal(err)
			}
		})
	}
	single, piped := allocs(runtime.NewExecutor(prog)), allocs(pe)
	if piped > single {
		t.Errorf("a pipelined run allocates %.2f objects, the single executor %.2f", piped, single)
	}
}

// TestShardRejectsBadArguments covers the error paths.
func TestShardRejectsBadArguments(t *testing.T) {
	tiny, err := workloads.TinyNet()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compileFixedLayout(tiny, tensor.NCHW, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runtime.Shard(nil, 2, runtime.ShardOptions{}); err == nil {
		t.Error("a nil program must be rejected")
	}
	if _, err := runtime.Shard(prog, 0, runtime.ShardOptions{}); err == nil {
		t.Error("a zero stage count must be rejected")
	}
	// More devices than ops: the stage count clamps instead of failing.
	sp, err := runtime.Shard(prog, 100, runtime.ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Stages) != len(prog.Ops) {
		t.Errorf("clamped sharding has %d stages, want one per op (%d)", len(sp.Stages), len(prog.Ops))
	}
}
