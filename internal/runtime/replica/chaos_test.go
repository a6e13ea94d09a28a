package replica_test

import (
	"context"
	"errors"
	"fmt"
	goruntime "runtime"
	"sync"
	"testing"
	"time"

	"memcnn/internal/runtime"
	"memcnn/internal/runtime/replica"
	"memcnn/internal/tensor"
	"memcnn/internal/workloads"
)

// chaosFixture compiles TinyNet with fixed layouts (CPU-deterministic) and
// returns the program, a full batch input, and the single-device golden
// output every surviving topology must reproduce bit-for-bit.
func chaosFixture(t *testing.T) (*runtime.Program, *tensor.Tensor, *tensor.Tensor) {
	t.Helper()
	net, err := workloads.TinyNet()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := runtime.Compile(net, "fixed-CHWN", runtime.Uniform(net, tensor.CHWN), runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.Random(prog.InputShape(), tensor.NCHW, 11)
	golden := tensor.New(prog.OutputShape(), tensor.NCHW)
	if err := runtime.NewExecutor(prog).RunInto(in, golden); err != nil {
		t.Fatal(err)
	}
	return prog, in, golden
}

// faultFleet wraps n CPU replicas in FaultDevices with the given schedules
// (one per replica).
func faultFleet(cfgs []runtime.FaultConfig) ([]runtime.Device, []*runtime.FaultDevice) {
	devices := make([]runtime.Device, len(cfgs))
	fds := make([]*runtime.FaultDevice, len(cfgs))
	for i, cfg := range cfgs {
		fds[i] = runtime.WrapFault(runtime.CPUDevice{}, cfg)
		devices[i] = fds[i]
	}
	return devices, fds
}

// TestChaosSoakReplicaDeath is the headline soak (run under -race by CI): a
// four-replica group serves 200 batches while one replica's device dies
// permanently partway through.  Every batch must still succeed, every output
// must be bit-identical to the single-device golden run, the group must
// record exactly one failover, and closing the group must leak no
// goroutines.
func TestChaosSoakReplicaDeath(t *testing.T) {
	prog, in, golden := chaosFixture(t)
	before := goruntime.NumGoroutine()

	devices, fds := faultFleet([]runtime.FaultConfig{
		{}, {}, {KillAfterOps: 40}, {},
	})
	g, err := replica.NewGroup(prog, 4, replica.Config{
		Devices: devices,
		Weights: []float64{1, 1, 1, 1},
	})
	if err != nil {
		t.Fatal(err)
	}

	const soak = 200
	const workers = 8
	var wg sync.WaitGroup
	errCh := make(chan error, soak)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := tensor.New(prog.OutputShape(), tensor.NCHW)
			for i := 0; i < soak/workers; i++ {
				if err := g.RunInto(in, out); err != nil {
					errCh <- err
					return
				}
				for j := range golden.Data {
					if out.Data[j] != golden.Data[j] {
						errCh <- errMismatch(j, out.Data[j], golden.Data[j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Errorf("soak: %v", err)
	}

	fs := g.FaultStats()
	if fs.Failovers != 1 {
		t.Errorf("Failovers = %d, want exactly 1 (one replica died once)", fs.Failovers)
	}
	if fs.UnhealthyReplicas != 1 {
		t.Errorf("UnhealthyReplicas = %d, want 1", fs.UnhealthyReplicas)
	}
	if fs.Retries == 0 {
		t.Errorf("Retries = 0, want > 0 (the dying replica was retried before failover)")
	}
	if !fds[2].Dead() {
		t.Error("the killed device should report Dead")
	}
	if h := g.Health(); h[2] != runtime.Unhealthy {
		t.Errorf("replica 2 health = %v, want unhealthy", h[2])
	}
	shares := batchShares(g)
	if shares[2] != 0 {
		t.Errorf("dead replica still owns %d images: shares %v", shares[2], shares)
	}
	total := 0
	for _, s := range shares {
		total += s
	}
	if total != prog.InputShape().N {
		t.Errorf("surviving shares %v do not cover the batch", shares)
	}

	g.Close()
	waitGoroutines(t, before)
}

func errMismatch(i int, got, want float32) error {
	return fmt.Errorf("output differs from single-device golden at %d: %v vs %v", i, got, want)
}

// waitGoroutines gives background goroutines (the prober, replica
// sub-batches) time to exit after Close, then checks none leaked.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if goruntime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after Close", before, goruntime.NumGoroutine())
}

// TestChaosTransientRetries drives a group whose replica suffers scheduled
// transient faults: retries must absorb them (outputs stay bit-identical) and
// the retry counter must reflect the injected faults.
func TestChaosTransientRetries(t *testing.T) {
	prog, in, golden := chaosFixture(t)
	devices, fds := faultFleet([]runtime.FaultConfig{
		{}, {Seed: 7, TransientRate: 0.02},
	})
	g, err := replica.NewGroup(prog, 2, replica.Config{
		Devices: devices,
		Weights: []float64{1, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	out := tensor.New(prog.OutputShape(), tensor.NCHW)
	for i := 0; i < 60; i++ {
		if err := g.RunInto(in, out); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		for j := range golden.Data {
			if out.Data[j] != golden.Data[j] {
				t.Fatalf("batch %d differs from golden at %d", i, j)
			}
		}
	}
	transients, _, _, _ := fds[1].FaultCounts()
	if transients == 0 {
		t.Fatal("schedule injected no transients over 60 batches; pick a hotter seed/rate")
	}
	if fs := g.FaultStats(); fs.Retries == 0 {
		t.Errorf("Retries = 0 with %d injected transients", transients)
	}
}

// TestChaosReadmission kills a replica, watches the group fail over, revives
// the device and checks the background probe re-admits the replica and hands
// it traffic again — with outputs bit-identical throughout.
func TestChaosReadmission(t *testing.T) {
	prog, in, golden := chaosFixture(t)
	devices, fds := faultFleet([]runtime.FaultConfig{{}, {}})
	g, err := replica.NewGroup(prog, 2, replica.Config{
		Devices: devices,
		Weights: []float64{1, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	run := func(label string) {
		t.Helper()
		out := tensor.New(prog.OutputShape(), tensor.NCHW)
		if err := g.RunInto(in, out); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for j := range golden.Data {
			if out.Data[j] != golden.Data[j] {
				t.Fatalf("%s: output differs from golden at %d", label, j)
			}
		}
	}

	run("healthy fleet")
	fds[1].Kill()
	run("one replica dead")
	if n := g.HealthyReplicas(); n != 1 {
		t.Fatalf("HealthyReplicas = %d after a death, want 1", n)
	}
	if shares := batchShares(g); shares[1] != 0 {
		t.Fatalf("dead replica still owns images: %v", shares)
	}

	fds[1].Revive()
	deadline := time.Now().Add(5 * time.Second)
	for g.HealthyReplicas() != 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := g.HealthyReplicas(); n != 2 {
		t.Fatalf("replica not re-admitted after revival: %d healthy", n)
	}
	fs := g.FaultStats()
	if fs.Readmissions == 0 {
		t.Errorf("Readmissions = 0 after a successful probe")
	}
	if shares := batchShares(g); shares[0] == 0 || shares[1] == 0 {
		t.Errorf("re-admitted replica received no traffic: shares %v", shares)
	}
	run("after re-admission")
}

// TestChaosPanicContainment checks a panicking replica fails over instead of
// crashing the process, and the panic is counted.
func TestChaosPanicContainment(t *testing.T) {
	prog, in, golden := chaosFixture(t)
	devices, _ := faultFleet([]runtime.FaultConfig{
		{}, {Seed: 3, PanicRate: 1},
	})
	g, err := replica.NewGroup(prog, 2, replica.Config{
		Devices: devices,
		Weights: []float64{1, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	out := tensor.New(prog.OutputShape(), tensor.NCHW)
	if err := g.RunInto(in, out); err != nil {
		t.Fatalf("batch over a panicking replica: %v", err)
	}
	for j := range golden.Data {
		if out.Data[j] != golden.Data[j] {
			t.Fatalf("failover output differs from golden at %d", j)
		}
	}
	fs := g.FaultStats()
	if fs.Panics == 0 {
		t.Error("Panics = 0, want > 0 (the injected panic was contained)")
	}
	if fs.Failovers != 1 {
		t.Errorf("Failovers = %d, want 1", fs.Failovers)
	}
}

// TestGroupRunIntoCtx covers the context path through the group: a cancelled
// context fails fast with ctx.Err() and, critically, does not trip failover —
// the replicas are fine, the caller just left.
func TestGroupRunIntoCtx(t *testing.T) {
	prog, in, _ := chaosFixture(t)
	g, err := replica.NewGroup(prog, 2, replica.Config{Weights: []float64{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := tensor.New(prog.OutputShape(), tensor.NCHW)
	if err := g.RunIntoCtx(ctx, in, out); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled group run: got %v, want context.Canceled", err)
	}
	fs := g.FaultStats()
	if fs.Failovers != 0 || fs.UnhealthyReplicas != 0 {
		t.Errorf("cancellation tripped failover: %+v", fs)
	}
	if err := g.RunIntoCtx(context.Background(), in, out); err != nil {
		t.Fatalf("run after cancellation: %v", err)
	}
}
