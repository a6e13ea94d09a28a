package replica_test

import (
	"os"
	"testing"

	"memcnn/internal/frameworks"
	"memcnn/internal/gpusim"
	"memcnn/internal/layout"
	"memcnn/internal/network"
	"memcnn/internal/runtime"
	"memcnn/internal/runtime/replica"
	"memcnn/internal/tensor"
	"memcnn/internal/workloads"
)

// mustCompile compiles a network under the paper's optimiser.
func mustCompile(t *testing.T, net *network.Network, opts runtime.Options) *runtime.Program {
	t.Helper()
	plan, err := frameworks.Optimized(layout.TitanBlackThresholds()).Plan(gpusim.TitanBlack(), net)
	if err != nil {
		t.Fatalf("planning %s: %v", net.Name, err)
	}
	prog, err := runtime.CompileWithOptions(plan, opts)
	if err != nil {
		t.Fatalf("compiling %s: %v", net.Name, err)
	}
	return prog
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

// batchShares returns the per-replica image counts one full batch currently
// splits into.
func batchShares(g *replica.Group) []int {
	stats := g.ReplicaStats()
	shares := make([]int, len(stats))
	for i, st := range stats {
		shares[i] = st.Share
	}
	return shares
}

func requireBitEqual(t *testing.T, label string, got, want *tensor.Tensor) {
	t.Helper()
	if got.Shape != want.Shape || got.Layout != want.Layout {
		t.Fatalf("%s: got %v/%v, want %v/%v", label, got.Shape, got.Layout, want.Shape, want.Layout)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: replicated output differs from the single-device run (first at %d: %v vs %v)",
				label, i, got.Data[i], want.Data[i])
		}
	}
}

// simFleet builds n single-device replicas over one Titan Black model.
func simFleet(t *testing.T, n int) [][]runtime.Device {
	t.Helper()
	devs, err := replica.ParseDevices("titanblack", n, 1)
	if err != nil {
		t.Fatal(err)
	}
	return devs
}

// TestShares covers the largest-remainder apportionment: proportionality,
// exact coverage, zero-weight replicas and the error paths.
func TestShares(t *testing.T) {
	cases := []struct {
		batch   int
		weights []float64
		want    []int
	}{
		{8, []float64{1, 1, 1, 1}, []int{2, 2, 2, 2}},
		{8, []float64{3, 1}, []int{6, 2}},
		{4, []float64{1, 0}, []int{4, 0}},
		{4, []float64{0, 1}, []int{0, 4}},
		{3, []float64{1, 1}, []int{2, 1}},             // remainder to the lower index
		{4, []float64{1, 0, 2, 1}, []int{1, 0, 2, 1}}, // zero replica inside the fleet
		{2, []float64{1, 1, 1, 1}, []int{1, 1, 0, 0}}, // fewer images than replicas
		{128, []float64{1e-9, 1}, []int{0, 128}},      // vanishing weight starves out
		{10, []float64{2, 3, 5}, []int{2, 3, 5}},      // exact proportions
	}
	for _, tc := range cases {
		got, err := replica.Shares(tc.batch, tc.weights)
		if err != nil {
			t.Errorf("Shares(%d, %v): %v", tc.batch, tc.weights, err)
			continue
		}
		total := 0
		for i := range got {
			total += got[i]
			if got[i] != tc.want[i] {
				t.Errorf("Shares(%d, %v) = %v, want %v", tc.batch, tc.weights, got, tc.want)
				break
			}
			if tc.weights[i] == 0 && got[i] != 0 {
				t.Errorf("Shares(%d, %v): zero-weight replica %d received %d images", tc.batch, tc.weights, i, got[i])
			}
		}
		if total != tc.batch {
			t.Errorf("Shares(%d, %v) sums to %d", tc.batch, tc.weights, total)
		}
	}

	for _, bad := range []struct {
		batch   int
		weights []float64
	}{
		{0, []float64{1}},
		{4, nil},
		{4, []float64{0, 0}},
		{4, []float64{1, -1}},
	} {
		if _, err := replica.Shares(bad.batch, bad.weights); err == nil {
			t.Errorf("Shares(%d, %v) accepted invalid input", bad.batch, bad.weights)
		}
	}
}

// goldenCase is one network of the replicated-equivalence suite.
type goldenCase struct {
	name     string
	net      *network.Network
	opts     runtime.Options
	replicas []int
	weights  map[int][]float64 // optional per-replica-count weights
}

// goldenCases tiers the functional cost the same way the runtime suite does:
// TinyNet always (every replica count, uniform and skewed weights), the
// reduced-batch paper networks with -short disabled, and the full-batch
// networks only under MEMCNN_GOLDEN_FULL.
func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	tiny, err := workloads.TinyNet()
	if err != nil {
		t.Fatal(err)
	}
	cases := []goldenCase{{
		name: "TinyNet", net: tiny, replicas: []int{1, 2, 3, 4},
		weights: map[int][]float64{
			2: {3, 1},       // skewed: shares 3,1
			3: {1, 0, 1},    // an idle replica inside the fleet
			4: {0, 1, 2, 1}, // skewed with a zero-weight head
		},
	}}
	if !testing.Short() {
		nets, err := workloads.Networks()
		if err != nil {
			t.Fatal(err)
		}
		alexSmall, err := workloads.AlexNetWithBatch(4)
		if err != nil {
			t.Fatal(err)
		}
		cifarSmall, err := workloads.Cifar10WithBatch(16)
		if err != nil {
			t.Fatal(err)
		}
		zfSmall, err := workloads.ZFNetWithBatch(4)
		if err != nil {
			t.Fatal(err)
		}
		selected := runtime.Options{ConvAlgorithms: true}
		cases = append(cases,
			// LeNet@128 selects GEMM for conv2: its sub-batch programs pin
			// that choice through Program.WithBatch, so bit-equality would break
			// loudly if rebatching re-selected by shape.
			goldenCase{name: "LeNet", net: nets["LeNet"], opts: selected, replicas: []int{2}},
			goldenCase{name: "AlexNet@4", net: alexSmall, opts: selected, replicas: []int{3}},
			goldenCase{name: "Cifar10@16", net: cifarSmall, opts: selected, replicas: []int{4},
				weights: map[int][]float64{4: {5, 1, 1, 1}}},
			goldenCase{name: "ZFNet@4", net: zfSmall, opts: selected, replicas: []int{2}},
		)
	}
	if os.Getenv("MEMCNN_GOLDEN_FULL") != "" {
		nets, err := workloads.Networks()
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range workloads.NetworkOrder {
			cases = append(cases, goldenCase{
				name: name + "/full", net: nets[name], replicas: []int{1, 2, 3, 4},
			})
		}
	}
	return cases
}

// TestGroupGoldenEquivalence scatters every affordable network across 1-4
// simulated replicas — uniform and skewed weights, including idle zero-weight
// replicas — and checks the reassembled output is bit-identical to the
// single-device executor.
func TestGroupGoldenEquivalence(t *testing.T) {
	for _, tc := range goldenCases(t) {
		prog := mustCompile(t, tc.net, tc.opts)
		in := tensor.Random(prog.InputShape(), tensor.NCHW, 23)
		want, err := runtime.NewExecutor(prog).Run(in)
		if err != nil {
			t.Fatalf("%s: single-device run: %v", tc.name, err)
		}
		for _, replicas := range tc.replicas {
			cfg := replica.Config{Devices: simFleet(t, replicas)}
			if w, ok := tc.weights[replicas]; ok {
				cfg.Weights = w
			}
			g, err := replica.NewGroup(prog, replicas, cfg)
			if err != nil {
				t.Fatalf("%s/%d: %v", tc.name, replicas, err)
			}
			got, err := runBatch(g, in, prog.OutputShape())
			if err != nil {
				g.Close()
				t.Fatalf("%s/%d: replicated run: %v", tc.name, replicas, err)
			}
			requireBitEqual(t, tc.name+"/replicated", got, want)
			// A second batch through the recycled per-replica arenas must be
			// identical.
			again, err := runBatch(g, in, prog.OutputShape())
			if err != nil {
				g.Close()
				t.Fatalf("%s/%d: replicated rerun: %v", tc.name, replicas, err)
			}
			requireBitEqual(t, tc.name+"/replicated rerun", again, want)

			shares := batchShares(g)
			total := 0
			for i, s := range shares {
				total += s
				if cfg.Weights != nil && cfg.Weights[i] == 0 && s != 0 {
					t.Errorf("%s/%d: zero-weight replica %d received %d images", tc.name, replicas, i, s)
				}
			}
			if total != prog.InputShape().N {
				t.Errorf("%s/%d: shares %v do not cover the batch", tc.name, replicas, shares)
			}
			for _, st := range g.ReplicaStats() {
				if st.Share > 0 && st.Batches != 2 {
					t.Errorf("%s/%d: replica %d saw %d batches, want 2", tc.name, replicas, st.Replica, st.Batches)
				}
				if st.Share > 0 && st.ModeledUS <= 0 {
					t.Errorf("%s/%d: replica %d reports no modeled time on a simulated device",
						tc.name, replicas, st.Replica)
				}
				if st.Share == 0 && st.Batches != 0 {
					t.Errorf("%s/%d: idle replica %d ran %d batches", tc.name, replicas, st.Replica, st.Batches)
				}
			}
			// No fault was injected: a retry, failover or unhealthy replica
			// here is the group dropping work on its own.
			if fs := g.FaultStats(); fs != (runtime.FaultStats{}) {
				t.Errorf("%s/%d: un-faulted group reports %+v", tc.name, replicas, fs)
			}
			g.Close()
		}
	}
}

// TestGroupLayoutStaging covers the non-NCHW caller path: CHWN batches stage
// through the pooled conversion tensors and must still reassemble exactly.
func TestGroupLayoutStaging(t *testing.T) {
	tiny, err := workloads.TinyNet()
	if err != nil {
		t.Fatal(err)
	}
	prog := mustCompile(t, tiny, runtime.Options{})
	in := tensor.Random(prog.InputShape(), tensor.CHWN, 7)
	want, err := runtime.NewExecutor(prog).Run(in)
	if err != nil {
		t.Fatal(err)
	}
	g, err := replica.NewGroup(prog, 2, replica.Config{Devices: simFleet(t, 2)})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	got, err := runBatch(g, in, prog.OutputShape())
	if err != nil {
		t.Fatal(err)
	}
	requireBitEqual(t, "chwn staging", got, want)
}

// TestGroupHeterogeneousSplit checks heterogeneity-aware weighting end to
// end: in a TitanBlack+TitanX fleet the shares must follow the modeled
// per-device throughput of the program (the cards price differently, so the
// split is not uniform), and the skewed split still reassembles
// bit-identically.
func TestGroupHeterogeneousSplit(t *testing.T) {
	nets, err := workloads.Networks()
	if err != nil {
		t.Fatal(err)
	}
	prog := mustCompile(t, nets["LeNet"], runtime.Options{})
	devs, err := replica.ParseDevices("titanblack,titanx", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	weights := replica.DeriveWeights(prog, devs)
	if weights[0] == weights[1] {
		t.Fatalf("TitanBlack and TitanX price LeNet identically (%v); the heterogeneity test needs a skew", weights)
	}
	wantShares, err := replica.Shares(prog.InputShape().N, weights)
	if err != nil {
		t.Fatal(err)
	}
	g, err := replica.NewGroup(prog, 2, replica.Config{Devices: devs})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	shares := batchShares(g)
	for i := range shares {
		if shares[i] != wantShares[i] {
			t.Errorf("shares %v do not follow the modeled weights %v (want %v)", shares, weights, wantShares)
			break
		}
	}
	if shares[0] == shares[1] {
		t.Errorf("mixed TitanBlack+TitanX fleet split uniformly (%v) despite modeled skew %v", shares, weights)
	}
	if shares[0] == 0 || shares[1] == 0 {
		t.Errorf("a replica starved out entirely: shares %v", shares)
	}
	if testing.Short() {
		return
	}
	in := tensor.Random(prog.InputShape(), tensor.NCHW, 11)
	want, err := runtime.NewExecutor(prog).Run(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runBatch(g, in, prog.OutputShape())
	if err != nil {
		t.Fatal(err)
	}
	requireBitEqual(t, "heterogeneous", got, want)
}

// TestGroupPipelinedReplicas composes data and model parallelism: each of two
// replicas is itself pipeline-sharded across two simulated devices, and the
// composition still matches the single-device run bit for bit.
func TestGroupPipelinedReplicas(t *testing.T) {
	tiny, err := workloads.TinyNet()
	if err != nil {
		t.Fatal(err)
	}
	prog := mustCompile(t, tiny, runtime.Options{})
	devs, err := replica.ParseDevices("titanblack,titanx", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := replica.NewGroup(prog, 2, replica.Config{Devices: devs})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	in := tensor.Random(prog.InputShape(), tensor.NCHW, 5)
	want, err := runtime.NewExecutor(prog).Run(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runBatch(g, in, prog.OutputShape())
	if err != nil {
		t.Fatal(err)
	}
	requireBitEqual(t, "pipelined replicas", got, want)
	for _, st := range g.ReplicaStats() {
		if st.Share > 0 && st.ModeledUS <= 0 {
			t.Errorf("pipelined replica %d reports no modeled time", st.Replica)
		}
	}
	if g.ModeledBatchUS() <= 0 {
		t.Error("group reports no modeled batch time on a simulated fleet")
	}
}

// TestGroupCPUProbeWeights exercises the warmup-probe weight path on native
// CPU replicas: both replicas run on the same host, so each must receive a
// non-empty share.
func TestGroupCPUProbeWeights(t *testing.T) {
	tiny, err := workloads.TinyNet()
	if err != nil {
		t.Fatal(err)
	}
	prog := mustCompile(t, tiny, runtime.Options{})
	g, err := replica.NewGroup(prog, 2, replica.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for i, s := range batchShares(g) {
		if s == 0 {
			t.Errorf("CPU replica %d starved out: shares %v", i, batchShares(g))
		}
	}
	in := tensor.Random(prog.InputShape(), tensor.NCHW, 3)
	want, err := runtime.NewExecutor(prog).Run(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runBatch(g, in, prog.OutputShape())
	if err != nil {
		t.Fatal(err)
	}
	requireBitEqual(t, "cpu probe", got, want)
}

// TestGroupValidation covers the construction and submission error paths.
func TestGroupValidation(t *testing.T) {
	tiny, err := workloads.TinyNet()
	if err != nil {
		t.Fatal(err)
	}
	prog := mustCompile(t, tiny, runtime.Options{})
	if _, err := replica.NewGroup(nil, 2, replica.Config{}); err == nil {
		t.Error("a nil program must be rejected")
	}
	if _, err := replica.NewGroup(prog, 0, replica.Config{}); err == nil {
		t.Error("a zero replica count must be rejected")
	}
	if _, err := replica.NewGroup(prog, 2, replica.Config{Devices: simFleet(t, 3)}); err == nil {
		t.Error("a device/replica count mismatch must be rejected")
	}
	if _, err := replica.NewGroup(prog, 2, replica.Config{
		Devices: simFleet(t, 2), Weights: []float64{1},
	}); err == nil {
		t.Error("a weight/replica count mismatch must be rejected")
	}
	if _, err := replica.NewGroup(prog, 2, replica.Config{
		Devices: simFleet(t, 2), Weights: []float64{0, 0},
	}); err == nil {
		t.Error("an all-zero weight vector must be rejected")
	}

	g, err := replica.NewGroup(prog, 2, replica.Config{Devices: simFleet(t, 2)})
	if err != nil {
		t.Fatal(err)
	}
	bad := tensor.New(tensor.Shape{N: 1, C: 1, H: 12, W: 12}, tensor.NCHW)
	if _, err := runBatch(g, bad, prog.OutputShape()); err == nil {
		t.Error("a wrong input shape must be rejected")
	}
	g.Close()
	g.Close() // idempotent
}

// TestParseDevices covers the fleet-spec parser.
func TestParseDevices(t *testing.T) {
	devs, err := replica.ParseDevices("titanblack,titanx", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(devs) != 4 {
		t.Fatalf("4 replicas produced %d device lists", len(devs))
	}
	for r, d := range devs {
		if len(d) != 1 {
			t.Fatalf("replica %d has %d devices, want 1", r, len(d))
		}
	}
	// The model list cycles across replicas.
	for _, pair := range [][2]int{{0, 2}, {1, 3}} {
		a := devs[pair[0]][0].(*runtime.SimDevice)
		b := devs[pair[1]][0].(*runtime.SimDevice)
		if a.HW.Name != b.HW.Name {
			t.Errorf("replicas %d and %d should share a model, got %q vs %q", pair[0], pair[1], a.HW.Name, b.HW.Name)
		}
	}
	if devs[0][0].(*runtime.SimDevice).HW.Name == devs[1][0].(*runtime.SimDevice).HW.Name {
		t.Error("alternating spec produced identical neighbouring models")
	}

	cpu, err := replica.ParseDevices("cpu", 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cpu[0]) != 3 {
		t.Fatalf("3-stage replica has %d devices", len(cpu[0]))
	}
	if _, ok := cpu[0][0].(runtime.CPUDevice); !ok {
		t.Errorf("cpu spec produced %T", cpu[0][0])
	}

	if _, err := replica.ParseDevices("keplerx", 2, 1); err == nil {
		t.Error("an unknown model must be rejected")
	}
	if _, err := replica.ParseDevices("titanx", 0, 1); err == nil {
		t.Error("a zero replica count must be rejected")
	}
}
