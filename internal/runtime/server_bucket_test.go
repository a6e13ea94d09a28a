package runtime_test

import (
	"context"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"memcnn/internal/kernels"
	"memcnn/internal/obs"
	"memcnn/internal/runtime"
	"memcnn/internal/tensor"
	"memcnn/internal/workloads"
)

// checkBucketedServer sends k = 1…N concurrent requests, for every k, to a
// NewServer over prog (batch N) and holds every reply bit for bit to its
// image's row of one full-batch RunInto.  Odd images are sent in NHWC, which
// the server converts into its NCHW staging batch.  Then it checks the
// buckets keep the base's layouts and algorithms and that each worker bound
// every bucket into one arena the size of the largest bucket's.
func checkBucketedServer(t *testing.T, prog *runtime.Program) {
	t.Helper()
	in, out := prog.InputShape(), prog.OutputShape()
	batch := tensor.Random(in, tensor.NCHW, 7)
	want := tensor.New(out, tensor.NCHW)
	if err := runtime.NewExecutor(prog).RunInto(batch, want); err != nil {
		t.Fatal(err)
	}
	srv, err := runtime.NewServer(prog, runtime.ServerConfig{MaxDelay: 20 * time.Millisecond, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	chw, per := in.C*in.H*in.W, out.C*out.H*out.W
	for k := 1; k <= in.N; k++ {
		var wg sync.WaitGroup
		for i := 0; i < k; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				img := tensor.New(tensor.Shape{N: 1, C: in.C, H: in.H, W: in.W}, tensor.NCHW)
				copy(img.Data, batch.Data[i*chw:(i+1)*chw])
				if i%2 == 1 {
					img = tensor.Convert(img, tensor.NHWC)
				}
				got, err := srv.Infer(context.Background(), img)
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.Equal(got.Data, want.Data[i*per:(i+1)*per]) {
					t.Errorf("%d concurrent requests: image %d differs from its row of the full batch", k, i)
				}
			}(i)
		}
		wg.Wait()
	}

	var sizes []int
	largest := 0
	for _, b := range runtime.ServerBuckets(srv) {
		sizes = append(sizes, b.InputShape().N)
		largest = max(largest, b.Mem.ArenaElems)
		if !slices.Equal(b.Choices(), prog.Choices()) {
			t.Errorf("bucket %d chose %v, the base %v", b.InputShape().N, b.Choices(), prog.Choices())
		}
	}
	var wantSizes []int
	for b := 1; b < in.N; b *= 2 {
		wantSizes = append(wantSizes, b)
	}
	if wantSizes = append(wantSizes, in.N); !slices.Equal(sizes, wantSizes) {
		t.Errorf("buckets %v, want %v", sizes, wantSizes)
	}
	elems, outside := runtime.WorkerArenas(srv)
	for w := range elems {
		if elems[w] != largest || outside[w] != 0 {
			t.Errorf("worker %d: arena of %d elems with %d buffers outside it, want one arena of %d elems holding every bucket",
				w, elems[w], outside[w], largest)
		}
	}
	if st := srv.Stats(); st.Requests != uint64(in.N*(in.N+1)/2) || st.Errors != 0 {
		t.Errorf("stats = %+v, want %d requests and no errors", st, in.N*(in.N+1)/2)
	}
}

// TestServerBucketsBitEqualCifar10 serves Cifar10 at batch 8 compiled the way
// the serving benchmark compiles it.
func TestServerBucketsBitEqualCifar10(t *testing.T) {
	net, err := workloads.Cifar10WithBatch(8)
	if err != nil {
		t.Fatal(err)
	}
	checkBucketedServer(t, mustCompileOpts(t, planners()[2], net, runtime.Options{ConvAlgorithms: true, Verify: true}))
}

// TestServerBucketsBitEqualLeNetCHWN serves LeNet at batch 16 in CHWN on
// GEMM: the batch-folded convolution, whose product spans the batch.
func TestServerBucketsBitEqualLeNetCHWN(t *testing.T) {
	net, err := workloads.LeNet()
	if err != nil {
		t.Fatal(err)
	}
	if net, err = net.WithBatch(16); err != nil {
		t.Fatal(err)
	}
	prog, err := runtime.Compile(net, "fixed-CHWN", runtime.Uniform(net, tensor.CHWN, kernels.ConvAlgGemm), runtime.Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	checkBucketedServer(t, prog)
}

// TestServerBucketRunsAreInstrumented serves a lone request through an
// instrumented executor: its bucket-1 run must record a run span of one
// image, one op span per executed op, and the run and op histograms.
func TestServerBucketRunsAreInstrumented(t *testing.T) {
	prog, exec, _, _ := observedFixture(t)
	rec, reg := obs.NewRecorder(1<<10), obs.NewRegistry()
	exec.Instrument(runtime.Observer{Trace: rec, Metrics: reg}, runtime.LaneEngine)
	srv, err := runtime.NewServerWith(prog, exec, runtime.ServerConfig{MaxDelay: time.Millisecond, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	in := prog.InputShape()
	if _, err := srv.Infer(context.Background(), tensor.Random(tensor.Shape{N: 1, C: in.C, H: in.H, W: in.W}, tensor.NCHW, 3)); err != nil {
		t.Fatal(err)
	}

	bucket := runtime.ServerBuckets(srv)[0]
	execOps := 0
	for _, op := range bucket.Ops {
		if op.Kind != runtime.OpReshape || bucket.Buffers[op.Out].AliasOf == runtime.NoBuffer {
			execOps++
		}
	}
	var runs, ops int
	for _, sp := range rec.Snapshot() {
		switch sp.Cat {
		case obs.CatRun:
			runs++
			if sp.Images != 1 {
				t.Errorf("run span of %d images, want the lone request's bucket of 1", sp.Images)
			}
		case obs.CatOp:
			ops++
		}
	}
	if runs != 1 || ops != execOps {
		t.Errorf("recorded %d run / %d op spans, want 1 / %d", runs, ops, execOps)
	}
	values := metricValues(t, reg)
	var opObservations float64
	for series, v := range values {
		if strings.HasPrefix(series, "memcnn_op_latency_us_count{") {
			opObservations += v
		}
	}
	if n := values[`memcnn_run_latency_us_count{net="TinyNet"}`]; n != 1 || opObservations != float64(execOps) {
		t.Errorf("histograms hold %g runs and %g ops, want 1 and %d", n, opObservations, execOps)
	}
	if st := srv.Stats(); st.Padded != 0 {
		t.Errorf("a lone request on bucket 1 padded %d images", st.Padded)
	}
}

// gateDevice computes on the CPU but stalls runs of the full batch at their
// first op: the first sleeps fullStall, every later one signals blocked and
// waits for gate to close.
type gateDevice struct {
	runtime.CPUDevice
	full    int
	runs    atomic.Int32
	blocked chan struct{}
	gate    chan struct{}
}

const fullStall = 10 * time.Millisecond

func (d *gateDevice) RunOp(p *runtime.Program, i int, in, out, aux *tensor.Tensor, scratch []float32) (float64, error) {
	if i == 0 && p.InputShape().N == d.full {
		if d.runs.Add(1) == 1 {
			time.Sleep(fullStall)
		} else {
			select {
			case d.blocked <- struct{}{}:
			default:
			}
			<-d.gate
		}
	}
	return d.CPUDevice.RunOp(p, i, in, out, aux, scratch)
}

// TestAdmissionPricesQueuedBatchesAtTheFullBucket warms a bucketed server
// with lone requests, which run fast on bucket 1, then queues a flood behind
// a stalled full batch.  The wait estimate must price each queued batch at
// the full bucket's p95, not at the p95 of every batch, which the lone
// requests hold down.
func TestAdmissionPricesQueuedBatchesAtTheFullBucket(t *testing.T) {
	prog, images, _ := serverFixture(t)
	n := prog.InputShape().N
	dev := &gateDevice{full: n, blocked: make(chan struct{}, 1), gate: make(chan struct{})}
	const workers = 1
	srv, err := runtime.NewServerWith(prog, runtime.NewExecutorOn(prog, dev), runtime.ServerConfig{
		MaxDelay: time.Millisecond,
		Workers:  workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	for i := 0; i < 40; i++ {
		if _, err := srv.Infer(ctx, images[i%len(images)]); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for i := 0; i < 10*n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := srv.Infer(ctx, images[i%len(images)]); err != nil {
				t.Error(err)
			}
		}(i)
	}
	defer wg.Wait()
	defer close(dev.gate)
	select {
	case <-dev.blocked:
	case <-time.After(10 * time.Second):
		t.Fatal("no second full batch reached the device")
	}
	depth := 2 * n * workers // the queue's capacity
	for deadline := time.Now().Add(10 * time.Second); runtime.QueueDepth(srv) < depth; {
		if time.Now().After(deadline) {
			t.Fatalf("queue holds %d requests, want %d", runtime.QueueDepth(srv), depth)
		}
		time.Sleep(time.Millisecond)
	}

	st := srv.Stats()
	ahead := float64(depth / n)
	full := runtime.FullBatchP95US(srv)
	if full < float64(fullStall)/1e3 {
		t.Errorf("full-bucket p95 %.0f us, under the %v stall", full, fullStall)
	}
	if want := ahead * full / workers; st.QueueWaitEstimateUS < want-1e-3 {
		t.Errorf("wait estimate %.0f us for %g batches ahead, want >= %.0f us (full-bucket p95 %.0f us; every batch's median %.0f us)",
			st.QueueWaitEstimateUS, ahead, want, full, st.BatchP50US)
	}
}
