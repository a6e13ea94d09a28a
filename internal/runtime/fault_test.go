package runtime_test

import (
	"context"
	"errors"
	"testing"

	"memcnn/internal/runtime"
	"memcnn/internal/tensor"
	"memcnn/internal/workloads"
)

// faultFixture compiles TinyNet with fixed layouts (the CPU-deterministic
// configuration the serving tests use) and returns a full-batch input.
func faultFixture(t *testing.T) (*runtime.Program, *tensor.Tensor, *tensor.Tensor) {
	t.Helper()
	net, err := workloads.TinyNet()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compileFixedLayout(net, tensor.CHWN, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.Random(prog.InputShape(), tensor.NCHW, 7)
	out := tensor.New(prog.OutputShape(), tensor.NCHW)
	return prog, in, out
}

// TestFaultDeviceDeterminism runs the same program over two FaultDevices with
// the same schedule and checks they inject faults at identical op ordinals:
// the per-run error pattern and the final counters must agree exactly.  This
// is the property that makes the chaos tests assertable.
func TestFaultDeviceDeterminism(t *testing.T) {
	prog, in, out := faultFixture(t)
	cfg := runtime.FaultConfig{Seed: 42, TransientRate: 0.15}

	pattern := func() ([]bool, uint64) {
		fd := runtime.WrapFault(runtime.CPUDevice{}, cfg)
		exec := runtime.NewExecutorOn(prog, fd)
		var failed []bool
		for i := 0; i < 40; i++ {
			err := exec.RunInto(in, out)
			if err != nil && !errors.Is(err, runtime.ErrFaultInjected) {
				t.Fatalf("run %d: unexpected error kind: %v", i, err)
			}
			failed = append(failed, err != nil)
		}
		transients, _, _, _ := fd.FaultCounts()
		return failed, transients
	}

	failedA, transientsA := pattern()
	failedB, transientsB := pattern()
	if transientsA == 0 {
		t.Fatalf("schedule injected no transients over 40 runs; pick a hotter seed/rate")
	}
	if transientsA != transientsB {
		t.Fatalf("same schedule, different transient counts: %d vs %d", transientsA, transientsB)
	}
	for i := range failedA {
		if failedA[i] != failedB[i] {
			t.Fatalf("same schedule, different failure pattern at run %d", i)
		}
	}
}

// TestFaultDeviceKillAndRevive covers permanent death: the op-count trigger,
// the permanence of ErrDeviceDead across retries, and explicit Revive.
func TestFaultDeviceKillAndRevive(t *testing.T) {
	prog, in, out := faultFixture(t)
	fd := runtime.WrapFault(runtime.CPUDevice{}, runtime.FaultConfig{KillAfterOps: 3})
	exec := runtime.NewExecutorOn(prog, fd)

	if err := exec.RunInto(in, out); !errors.Is(err, runtime.ErrDeviceDead) {
		t.Fatalf("run on a device dying at op 3: got %v, want ErrDeviceDead", err)
	}
	if !fd.Dead() {
		t.Fatal("device should report Dead after its kill ordinal")
	}
	for i := 0; i < 3; i++ {
		if err := exec.RunInto(in, out); !errors.Is(err, runtime.ErrDeviceDead) {
			t.Fatalf("retry %d against a dead device: got %v, want ErrDeviceDead", i, err)
		}
	}
	fd.Revive()
	if err := exec.RunInto(in, out); err != nil {
		t.Fatalf("run after Revive: %v", err)
	}

	// Explicit Kill behaves like the scheduled one.
	fd2 := runtime.WrapFault(runtime.CPUDevice{}, runtime.FaultConfig{})
	exec2 := runtime.NewExecutorOn(prog, fd2)
	fd2.Kill()
	if err := exec2.RunInto(in, out); !errors.Is(err, runtime.ErrDeviceDead) {
		t.Fatalf("run after Kill: got %v, want ErrDeviceDead", err)
	}
}

// TestExecutorContainsPanic checks crash containment: an op that panics fails
// its run with a *PanicError instead of taking down the process, and the
// executor remains usable.
func TestExecutorContainsPanic(t *testing.T) {
	prog, in, out := faultFixture(t)
	fd := runtime.WrapFault(runtime.CPUDevice{}, runtime.FaultConfig{Seed: 1, PanicRate: 1})
	exec := runtime.NewExecutorOn(prog, fd)

	err := exec.RunInto(in, out)
	var pe *runtime.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("run on an always-panicking device: got %v, want *PanicError", err)
	}
	if pe.Op == "" || len(pe.Stack) == 0 {
		t.Fatalf("contained panic lost its context: op %q, %d stack bytes", pe.Op, len(pe.Stack))
	}
}

// TestExecutorCancellation checks the context path: a cancelled context
// aborts the run between ops with ctx.Err() and leaves dst untouched.
func TestExecutorCancellation(t *testing.T) {
	prog, in, out := faultFixture(t)
	exec := runtime.NewExecutor(prog)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sentinel := float32(12.5)
	for i := range out.Data {
		out.Data[i] = sentinel
	}
	if err := exec.RunIntoCtx(ctx, in, out); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: got %v, want context.Canceled", err)
	}
	for i, v := range out.Data {
		if v != sentinel {
			t.Fatalf("cancelled run wrote dst at %d", i)
		}
	}
	if err := exec.RunIntoCtx(context.Background(), in, out); err != nil {
		t.Fatalf("run after cancellation: %v", err)
	}
}
