package runtime_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"memcnn/internal/network"
	"memcnn/internal/runtime"
	"memcnn/internal/runtime/replica"
	"memcnn/internal/tensor"
	"memcnn/internal/workloads"
)

// serverFixture compiles TinyNet, builds per-image golden outputs with
// ReferenceForward, and returns the distinct request images.
func serverFixture(t *testing.T) (*runtime.Program, []*tensor.Tensor, []*tensor.Tensor) {
	t.Helper()
	net, err := workloads.TinyNet()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compileFixedLayout(net, tensor.CHWN, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := net.InputShape() // {4,1,12,12}
	images, golden := goldenPerImage(t, net, in.N)
	return prog, images, golden
}

// goldenPerImage builds `count` distinct single-image inputs, runs them
// through ReferenceForward as one batch and slices the per-image outputs.
// Every layer processes images independently, so each row is the exact
// golden answer for its image alone; the batch is held within tolerance of
// the naive Network.Forward too.
func goldenPerImage(t *testing.T, net *network.Network, count int) (images, golden []*tensor.Tensor) {
	t.Helper()
	in := net.InputShape()
	batch := tensor.Random(in, tensor.NCHW, 99)
	chw := in.C * in.H * in.W
	for i := 0; i < count; i++ {
		img := tensor.New(tensor.Shape{N: 1, C: in.C, H: in.H, W: in.W}, tensor.NCHW)
		copy(img.Data, batch.Data[i*chw:(i+1)*chw])
		images = append(images, img)
	}
	prog, err := compileFixedLayout(net, tensor.NCHW, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := prog.ReferenceForward(batch)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := net.Forward(batch)
	if err != nil {
		t.Fatal(err)
	}
	requireClose(t, net.Name+" golden batch", out, naive)
	outNCHW := tensor.Convert(out, tensor.NCHW)
	os := out.Shape
	per := os.C * os.H * os.W
	for i := 0; i < count; i++ {
		row := tensor.New(tensor.Shape{N: 1, C: os.C, H: os.H, W: os.W}, tensor.NCHW)
		copy(row.Data, outNCHW.Data[i*per:(i+1)*per])
		golden = append(golden, row)
	}
	return images, golden
}

// TestServerConcurrentRequests drives 96 concurrent single-image requests
// (run under -race by CI) and checks every response bit-equals the naive
// per-image golden output.
func TestServerConcurrentRequests(t *testing.T) {
	prog, images, golden := serverFixture(t)
	srv, err := runtime.NewServer(prog, runtime.ServerConfig{
		MaxDelay: 5 * time.Millisecond,
		Workers:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const concurrent = 96
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, concurrent)
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			img := images[i%len(images)]
			out, err := srv.Infer(ctx, img)
			if err != nil {
				errs <- err
				return
			}
			want := golden[i%len(golden)]
			for j := range want.Data {
				if out.Data[j] != want.Data[j] {
					errs <- errMismatch(i, j)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := srv.Stats()
	if st.Requests != concurrent {
		t.Errorf("stats report %d requests, want %d", st.Requests, concurrent)
	}
	if st.Batches == 0 || st.Batches > concurrent {
		t.Errorf("implausible batch count %d", st.Batches)
	}
	if st.LargestBatch < 2 {
		t.Errorf("no coalescing observed (largest batch %d)", st.LargestBatch)
	}
	t.Logf("served %d requests in %d batches (avg %.2f, largest %d)",
		st.Requests, st.Batches, st.AvgBatch, st.LargestBatch)
}

// TestServerPipelinedConcurrentRequests is the sharded twin of the test
// above: the same 96 concurrent single-image requests, served through a
// two-stage pipeline (run under -race by CI).  Every response
// must still bit-equal the naive per-image golden output, and both pipeline
// stages must have seen every batch.
func TestServerPipelinedConcurrentRequests(t *testing.T) {
	prog, images, golden := serverFixture(t)
	sp, err := runtime.Shard(prog, 2, runtime.ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pipe := runtime.NewPipelineExecutor(sp)
	defer pipe.Close()
	srv, err := runtime.NewServerWith(prog, pipe, runtime.ServerConfig{
		MaxDelay: 5 * time.Millisecond,
		Workers:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const concurrent = 96
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, concurrent)
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			img := images[i%len(images)]
			out, err := srv.Infer(ctx, img)
			if err != nil {
				errs <- err
				return
			}
			want := golden[i%len(golden)]
			for j := range want.Data {
				if out.Data[j] != want.Data[j] {
					errs <- errMismatch(i, j)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := srv.Stats()
	if st.Requests != concurrent {
		t.Errorf("stats report %d requests, want %d", st.Requests, concurrent)
	}
	for _, stage := range pipe.StageStats() {
		if stage.Batches != st.Batches {
			t.Errorf("stage %d saw %d batches, server ran %d", stage.Stage, stage.Batches, st.Batches)
		}
	}
	t.Logf("pipelined: %d requests in %d batches across %d stages",
		st.Requests, st.Batches, len(pipe.StageStats()))
}

// TestServerReplicatedCachedConcurrentRequests is the data-parallel twin of
// the concurrent-server tests: 96 concurrent single-image requests served
// through a replica group (two CPU replicas weighted 1 and 2, so the batch
// splits unevenly) with the result cache enabled (run under -race by CI).
// Every response must bit-equal the naive per-image golden output, and with 4
// distinct request images the single-flight cache must execute each image
// exactly once — 4 misses, 92 hits — so only the misses ever reach the
// batching queue.
func TestServerReplicatedCachedConcurrentRequests(t *testing.T) {
	prog, images, golden := serverFixture(t)
	group, err := replica.NewGroup(prog, 2, replica.Config{
		Devices: []runtime.Device{runtime.CPUDevice{}, runtime.CPUDevice{}},
		Weights: []float64{1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer group.Close()
	srv, err := runtime.NewServerWith(prog, group, runtime.ServerConfig{
		MaxDelay:     5 * time.Millisecond,
		Workers:      4,
		CacheEntries: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const concurrent = 96
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, concurrent)
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			img := images[i%len(images)]
			out, err := srv.Infer(ctx, img)
			if err != nil {
				errs <- err
				return
			}
			want := golden[i%len(golden)]
			for j := range want.Data {
				if out.Data[j] != want.Data[j] {
					errs <- errMismatch(i, j)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := srv.Stats()
	if st.Cache == nil {
		t.Fatal("cache enabled but no cache stats reported")
	}
	if st.Cache.Misses != uint64(len(images)) {
		t.Errorf("cache misses = %d, want one per distinct image (%d)", st.Cache.Misses, len(images))
	}
	if st.Cache.Hits+st.Cache.Misses != concurrent {
		t.Errorf("cache saw %d requests (%d hits + %d misses), want %d",
			st.Cache.Hits+st.Cache.Misses, st.Cache.Hits, st.Cache.Misses, concurrent)
	}
	if st.Requests != st.Cache.Misses {
		t.Errorf("%d requests reached the batching queue, want only the %d cache misses",
			st.Requests, st.Cache.Misses)
	}
	for _, rs := range group.ReplicaStats() {
		if rs.Share > 0 && rs.Batches != st.Batches {
			t.Errorf("replica %d served %d batches, server ran %d", rs.Replica, rs.Batches, st.Batches)
		}
	}
	t.Logf("replicated+cached: %d requests, %d hits, %d misses, %d batches across %d replicas",
		concurrent, st.Cache.Hits, st.Cache.Misses, st.Batches, group.Replicas())
}

type errMismatchErr struct{ req, elem int }

func errMismatch(req, elem int) error { return errMismatchErr{req, elem} }

func (e errMismatchErr) Error() string {
	return fmt.Sprintf("request %d: result differs from golden output at element %d", e.req, e.elem)
}

// TestServerPartialBatch checks the partial-batch path: one lone request must
// still produce the exact golden output, on bucket 1 under NewServer (no
// padding) and padded to the full batch under any other runner.
func TestServerPartialBatch(t *testing.T) {
	prog, images, golden := serverFixture(t)
	n := prog.InputShape().N
	for _, tc := range []struct {
		name   string
		run    runtime.Runner
		padded uint64
	}{
		{"executor", runtime.NewExecutor(prog), 0},
		{"other runner", &slowRunner{exec: runtime.NewExecutor(prog)}, uint64(n - 1)},
	} {
		srv, err := runtime.NewServerWith(prog, tc.run, runtime.ServerConfig{MaxDelay: time.Millisecond, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		out, err := srv.Infer(context.Background(), images[2])
		srv.Close()
		if err != nil {
			t.Fatal(err)
		}
		for j := range golden[2].Data {
			if out.Data[j] != golden[2].Data[j] {
				t.Fatalf("%s: partial batch corrupted the result at %d", tc.name, j)
			}
		}
		if st := srv.Stats(); st.Requests != 1 || st.Batches != 1 || st.Padded != tc.padded {
			t.Errorf("%s: stats = %+v, want 1 request in 1 batch with %d padded", tc.name, st, tc.padded)
		}
	}
}

// TestServerValidation covers configuration and request validation.
func TestServerValidation(t *testing.T) {
	prog, images, _ := serverFixture(t)
	if _, err := runtime.NewServer(prog, runtime.ServerConfig{MaxBatch: 99}); err == nil {
		t.Error("MaxBatch above the network batch must be rejected")
	}
	srv, err := runtime.NewServer(prog, runtime.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	bad := tensor.New(tensor.Shape{N: 2, C: 1, H: 12, W: 12}, tensor.NCHW)
	if _, err := srv.Infer(context.Background(), bad); err == nil {
		t.Error("a multi-image request must be rejected")
	}
	srv.Close()
	srv.Close() // idempotent
	if _, err := srv.Infer(context.Background(), images[0]); err != runtime.ErrServerClosed {
		t.Errorf("Infer after Close returned %v, want ErrServerClosed", err)
	}
}

// TestServerContextCancellation checks that a cancelled context unblocks the
// caller.
func TestServerContextCancellation(t *testing.T) {
	prog, images, _ := serverFixture(t)
	srv, err := runtime.NewServer(prog, runtime.ServerConfig{MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := srv.Infer(ctx, images[0]); err != context.Canceled {
		t.Errorf("Infer with cancelled context returned %v, want context.Canceled", err)
	}
}
