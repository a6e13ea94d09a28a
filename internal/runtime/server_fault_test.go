package runtime_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"memcnn/internal/runtime"
	"memcnn/internal/runtime/replica"
	"memcnn/internal/tensor"
)

// slowRunner delegates to a real executor after an adjustable delay that
// honors cancellation — the controllable stand-in for an overloaded engine.
type slowRunner struct {
	exec  *runtime.Executor
	delay atomic.Int64 // ns
}

func (r *slowRunner) RunInto(in, dst *tensor.Tensor) error {
	return r.RunIntoCtx(context.Background(), in, dst)
}

func (r *slowRunner) RunIntoCtx(ctx context.Context, in, dst *tensor.Tensor) error {
	if d := time.Duration(r.delay.Load()); d > 0 {
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return r.exec.RunIntoCtx(ctx, in, dst)
}

// TestServerChaosSoakReplicaDeath is the end-to-end acceptance soak (run
// under -race by CI): a batching server over four replicas serves 200
// requests while one replica's device dies permanently partway through.  The
// process must not crash, every response must be bit-identical to the naive
// per-image golden, and the server's fault counters must report exactly one
// failover with one replica out of rotation.
func TestServerChaosSoakReplicaDeath(t *testing.T) {
	prog, images, golden := serverFixture(t)
	devices := make([]runtime.Device, 4)
	for i := range devices {
		cfg := runtime.FaultConfig{}
		if i == 1 {
			cfg.KillAfterOps = 40
		}
		devices[i] = runtime.WrapFault(runtime.CPUDevice{}, cfg)
	}
	g, err := replica.NewGroup(prog, 4, replica.Config{
		Devices: devices,
		Weights: []float64{1, 1, 1, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	srv, err := runtime.NewServerWith(prog, g, runtime.ServerConfig{
		MaxDelay: 2 * time.Millisecond,
		Workers:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const soak = 200
	const workers = 8
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errCh := make(chan error, soak)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < soak; i += workers {
				img := i % len(images)
				out, err := srv.Infer(ctx, images[img])
				if err != nil {
					errCh <- err
					return
				}
				for j := range golden[img].Data {
					if out.Data[j] != golden[img].Data[j] {
						errCh <- errMismatch(i, j)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Errorf("soak: %v", err)
	}

	st := srv.Stats()
	if st.Faults == nil {
		t.Fatal("ServerStats.Faults is nil for a replica-backed server")
	}
	if st.Faults.Failovers != 1 {
		t.Errorf("Failovers = %d, want exactly 1", st.Faults.Failovers)
	}
	if st.Faults.UnhealthyReplicas != 1 {
		t.Errorf("UnhealthyReplicas = %d, want 1", st.Faults.UnhealthyReplicas)
	}
	if st.Faults.Retries == 0 {
		t.Error("Retries = 0, want > 0")
	}
	if st.Shed != 0 || st.Expired != 0 {
		t.Errorf("un-SLO'd server shed %d / expired %d requests", st.Shed, st.Expired)
	}
	if st.Requests != soak {
		t.Errorf("Requests = %d, want %d", st.Requests, soak)
	}
}

// TestServerDeadlineExceeded drives a server whose engine is slower than the
// SLO: the request must fail with context.DeadlineExceeded, and — with the
// result cache enabled — the failure must not poison the cache: the same
// image succeeds once the engine recovers.
func TestServerDeadlineExceeded(t *testing.T) {
	prog, images, golden := serverFixture(t)
	run := &slowRunner{exec: runtime.NewExecutor(prog)}
	run.delay.Store(int64(100 * time.Millisecond))
	srv, err := runtime.NewServerWith(prog, run, runtime.ServerConfig{
		MaxBatch:     1,
		Workers:      1,
		SLO:          10 * time.Millisecond,
		CacheEntries: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if _, err := srv.Infer(context.Background(), images[0]); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("slow engine under a 10ms SLO: got %v, want context.DeadlineExceeded", err)
	}

	// Engine recovers; the cached failure must not shadow the real answer.
	run.delay.Store(0)
	deadline := time.Now().Add(10 * time.Second)
	for {
		out, err := srv.Infer(context.Background(), images[0])
		if err == nil {
			for j := range golden[0].Data {
				if out.Data[j] != golden[0].Data[j] {
					t.Fatalf("post-recovery output differs from golden at %d", j)
				}
			}
			break
		}
		if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, runtime.ErrShed) {
			t.Fatalf("post-recovery request: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("request kept failing after the engine recovered: %v", err)
		}
	}
}

// TestServerShedding floods a deliberately slow single-worker server past its
// SLO and checks admission control rejects the overflow with ErrShed instead
// of queueing doomed work — and that shed requests never poison the cache.
func TestServerShedding(t *testing.T) {
	prog, images, golden := serverFixture(t)
	run := &slowRunner{exec: runtime.NewExecutor(prog)}
	run.delay.Store(int64(30 * time.Millisecond))
	srv, err := runtime.NewServerWith(prog, run, runtime.ServerConfig{
		MaxBatch: 1,
		Workers:  1,
		SLO:      50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// One sequential request measures the batch time that feeds the
	// admission estimate.
	if _, err := srv.Infer(context.Background(), images[0]); err != nil {
		t.Fatalf("warm-up request: %v", err)
	}

	const flood = 24
	var wg sync.WaitGroup
	var sheds, deadline, ok atomic.Uint64
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := srv.Infer(context.Background(), images[i%len(images)])
			switch {
			case err == nil:
				ok.Add(1)
			case errors.Is(err, runtime.ErrShed):
				sheds.Add(1)
			case errors.Is(err, context.DeadlineExceeded):
				deadline.Add(1)
			default:
				t.Errorf("request %d: unexpected error %v", i, err)
			}
		}(i)
	}
	wg.Wait()

	st := srv.Stats()
	if sheds.Load() == 0 || st.Shed == 0 {
		t.Errorf("flood of %d requests against a saturated server shed none (stats: %+v)", flood, st)
	}
	if got := sheds.Load() + deadline.Load() + ok.Load(); got != flood {
		t.Errorf("request accounting: %d shed + %d deadline + %d ok != %d", sheds.Load(), deadline.Load(), ok.Load(), flood)
	}

	// The server recovers once the engine speeds up: nothing is poisoned.
	run.delay.Store(0)
	wait := time.Now().Add(10 * time.Second)
	for {
		out, err := srv.Infer(context.Background(), images[1])
		if err == nil {
			for j := range golden[1].Data {
				if out.Data[j] != golden[1].Data[j] {
					t.Fatalf("post-flood output differs from golden at %d", j)
				}
			}
			return
		}
		if !errors.Is(err, runtime.ErrShed) && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("post-flood request: %v", err)
		}
		if time.Now().After(wait) {
			t.Fatalf("server never recovered from the flood: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerCancellationMidFlush cancels a request while it waits for its
// batch to fill: the caller must return promptly with context.Canceled, the
// worker must drop the corpse from the batch (Expired counter), and — with
// the cache enabled — the same image must still be servable afterwards.
func TestServerCancellationMidFlush(t *testing.T) {
	prog, images, golden := serverFixture(t)
	srv, err := runtime.NewServerWith(prog, runtime.NewExecutor(prog), runtime.ServerConfig{
		MaxDelay:     300 * time.Millisecond,
		Workers:      1,
		CacheEntries: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	if _, err := srv.Infer(ctx, images[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled request: got %v, want context.Canceled", err)
	}
	if waited := time.Since(start); waited > 200*time.Millisecond {
		t.Errorf("cancelled caller blocked %v (should return well before the %v flush)", waited, 300*time.Millisecond)
	}

	// The worker notices the corpse when its batch window closes.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Expired == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if st := srv.Stats(); st.Expired == 0 {
		t.Errorf("cancelled request never counted as expired: %+v", st)
	}

	// The cancellation must not have poisoned the cache for that image.
	out, err := srv.Infer(context.Background(), images[0])
	if err != nil {
		t.Fatalf("request after cancellation: %v", err)
	}
	for j := range golden[0].Data {
		if out.Data[j] != golden[0].Data[j] {
			t.Fatalf("post-cancellation output differs from golden at %d", j)
		}
	}
}
