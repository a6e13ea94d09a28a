package runtime_test

import (
	"testing"

	"memcnn/internal/gpusim"
	"memcnn/internal/network"
	"memcnn/internal/runtime"
	"memcnn/internal/runtime/verify"
	"memcnn/internal/tensor"
	"memcnn/internal/workloads"
)

// simDevices builds n simulated devices over the paper's Titan Black model.
func simDevices(n int) []runtime.Device {
	return runtime.SimDevices(n, gpusim.TitanBlack())
}

// TestShardStructureProperty shards every supported network (TinyNet plus the
// five paper models, the latter compiled under the paper's optimiser, with
// and without convolution algorithm selection) across 1–4 devices and checks
// the structural invariants of every sharding: stages are contiguous and
// cover the op list exactly once, every stage's memory plan validates, stage
// shapes chain through the cut boundaries, the transfer at each cut is
// exactly the boundary buffer's storage, and the static verifier accepts the
// cut and every stage sub-program.
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
			sp, err := runtime.Shard(prog, devices, runtime.ShardOptions{
				Devices: simDevices(devices),
			})
			if err != nil {
				t.Fatalf("%s/%d: %v", name, devices, err)
			}
			if len(sp.Stages) != devices && len(sp.Stages) != len(prog.Ops) {
				t.Errorf("%s/%d: %d stages", name, devices, len(sp.Stages))
			}
			if err := verify.Sharded(sp); err != nil {
				t.Errorf("%s/%d: %v", name, devices, err)
			}
			next := 0
			for i, st := range sp.Stages {
				if st.FirstOp != next || st.LastOp < st.FirstOp {
					t.Fatalf("%s/%d: stage %d spans [%d,%d], want to start at %d",
						name, devices, i, st.FirstOp, st.LastOp, next)
				}
				next = st.LastOp + 1
				if err := st.Prog.Mem.Validate(st.Prog); err != nil {
					t.Errorf("%s/%d: stage %d plan: %v", name, devices, i, err)
				}
				if st.Ops() != len(st.Prog.Ops) {
					t.Errorf("%s/%d: stage %d has %d ops, program %d",
						name, devices, i, st.Ops(), len(st.Prog.Ops))
				}
				if i == 0 {
					if st.TransferInBytes != 0 {
						t.Errorf("%s/%d: first stage reports a transfer", name, devices)
					}
					if st.Prog.InputShape() != prog.InputShape() {
						t.Errorf("%s/%d: first stage consumes %v, want %v",
							name, devices, st.Prog.InputShape(), prog.InputShape())
					}
					continue
				}
				prev := sp.Stages[i-1]
				if prev.Prog.OutputShape() != st.Prog.InputShape() {
					t.Errorf("%s/%d: cut %d: stage output %v does not feed stage input %v",
						name, devices, i, prev.Prog.OutputShape(), st.Prog.InputShape())
				}
				if want := st.Prog.Buffers[st.Prog.Input].Bytes(); st.TransferInBytes != want {
					t.Errorf("%s/%d: cut %d transfers %d B, boundary holds %d B",
						name, devices, i, st.TransferInBytes, want)
				}
			}
			if next != len(prog.Ops) {
				t.Errorf("%s/%d: stages cover %d of %d ops", name, devices, next, len(prog.Ops))
			}
			if last := sp.Stages[len(sp.Stages)-1]; last.Prog.OutputShape() != prog.OutputShape() {
				t.Errorf("%s/%d: last stage produces %v, want %v",
					name, devices, last.Prog.OutputShape(), prog.OutputShape())
			}
			if sp.SummedPeakBytes() <= 0 {
				t.Errorf("%s/%d: summed peak %d", name, devices, sp.SummedPeakBytes())
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
// simulated devices and checks the stitched stage outputs are bit-identical
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
		want, err := runtime.NewExecutor(prog).Run(in)
		if err != nil {
			t.Fatalf("%s: unsharded run: %v", tc.name, err)
		}
		for _, devices := range tc.devices {
			sp, err := runtime.Shard(prog, devices, runtime.ShardOptions{Devices: simDevices(devices)})
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
				// A second batch through the recycled stage arenas and
				// boundary pools must be identical.
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
				if st.ModeledUS <= 0 {
					t.Errorf("%s/%d: stage %d reports no modeled time on a simulated device",
						tc.name, devices, st.Stage)
				}
			}
			summed, single := sp.SummedPeakBytes(), prog.Mem.PeakBytes()
			t.Logf("%s across %d device(s): summed arena %.2f MiB vs single-device %.2f MiB, transfers %.2f MiB",
				tc.name, len(sp.Stages), float64(summed)/(1<<20), float64(single)/(1<<20),
				float64(sp.TransferBytes())/(1<<20))
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
	if _, err := runtime.Shard(prog, 2, runtime.ShardOptions{Devices: simDevices(3)}); err == nil {
		t.Error("a device/stage count mismatch must be rejected")
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
