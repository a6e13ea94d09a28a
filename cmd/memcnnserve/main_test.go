package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"memcnn/internal/kernels"
	memruntime "memcnn/internal/runtime"
	"memcnn/internal/runtime/replica"
	"memcnn/internal/tensor"
	"memcnn/internal/workloads"
)

// fakeInferrer answers every request with a fixed result.
type fakeInferrer struct {
	out *tensor.Tensor
	err error
}

func (f fakeInferrer) Infer(context.Context, *tensor.Tensor) (*tensor.Tensor, error) {
	return f.out, f.err
}

var tinyShape = tensor.Shape{N: 4, C: 1, H: 2, W: 2}

func imageBody(n int) string {
	return `{"image":[` + strings.TrimSuffix(strings.Repeat("0.5,", n), ",") + `]}`
}

func post(h http.Handler, ctx context.Context, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/infer", strings.NewReader(body)).WithContext(ctx))
	return rec
}

// TestServesTheSelectedProgram: the stock binary has no flag that turns
// algorithm selection on, because nothing turns it off.  Under every policy
// LeNet's convolutions compile to the GEMM the selector picks (the direct
// kernel is 5-30x slower on them), and the executor passes the startup golden
// check main always runs.
func TestServesTheSelectedProgram(t *testing.T) {
	net, err := workloads.ByName("lenet")
	if err != nil {
		t.Fatal(err)
	}
	if net, err = net.WithBatch(8); err != nil {
		t.Fatal(err)
	}
	for _, policy := range []string{"opt", "nchw", "chwn"} {
		prog, err := compile(net, policy)
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		choices := prog.ConvChoices()
		if len(choices) == 0 {
			t.Fatalf("%s: no convolution in the compiled program", policy)
		}
		for _, ch := range choices {
			if ch.Alg != kernels.ConvAlgGemm {
				t.Errorf("%s: %s compiles to %v, the selector picks %v", policy, ch.Layer, ch.Alg, kernels.ConvAlgGemm)
			}
		}
		if err := goldenCheck(prog, memruntime.NewExecutor(prog)); err != nil {
			t.Errorf("%s: %v", policy, err)
		}
	}
}

// TestInferErrorStatuses drives every Infer failure through the handler and
// checks the status a client would act on.
func TestInferErrorStatuses(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"shed", memruntime.ErrShed, http.StatusTooManyRequests},
		{"deadline", fmt.Errorf("runtime: %w", context.DeadlineExceeded), http.StatusGatewayTimeout},
		{"closed", memruntime.ErrServerClosed, http.StatusServiceUnavailable},
		{"no replicas", fmt.Errorf("batch: %w", replica.ErrNoHealthyReplicas), http.StatusServiceUnavailable},
		{"panic", &memruntime.PanicError{Op: "executor", Value: "boom"}, http.StatusInternalServerError},
		{"other", errors.New("kernel failed"), http.StatusInternalServerError},
	}
	for _, tc := range cases {
		rec := post(inferHandler(fakeInferrer{err: tc.err}, tinyShape), context.Background(), imageBody(4))
		if rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, rec.Code, tc.want)
		}
	}
}

// TestInferCancelledRequestWritesNothing: a request whose own context is gone
// has no reader, so the handler must not write a status or a body.
func TestInferCancelledRequestWritesNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := post(inferHandler(fakeInferrer{err: context.Canceled}, tinyShape), ctx, imageBody(4))
	if rec.Body.Len() != 0 || len(rec.Header()) != 0 {
		t.Errorf("handler wrote %q with headers %v to a cancelled request", rec.Body.String(), rec.Header())
	}
}

// TestInferRequestValidation covers what is rejected before the server sees
// the request, and the success path through a real batching server.
func TestInferRequestValidation(t *testing.T) {
	net, err := workloads.TinyNet()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compile(net, "nchw")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := memruntime.NewServer(prog, memruntime.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	in := prog.InputShape()
	pixels := in.C * in.H * in.W
	h := inferHandler(srv, in)

	cases := []struct {
		name, body string
		want       int
	}{
		{"ok", imageBody(pixels), http.StatusOK},
		{"malformed", `{"image":[1,`, http.StatusBadRequest},
		{"short image", imageBody(pixels - 1), http.StatusBadRequest},
		{"oversized", `{"image":[` + strings.Repeat(" ", int(inferBodyLimit(in))) + `]}`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		rec := post(h, context.Background(), tc.body)
		if rec.Code != tc.want {
			t.Errorf("%s: status %d (%s), want %d", tc.name, rec.Code, strings.TrimSpace(rec.Body.String()), tc.want)
		}
		if tc.want == http.StatusOK {
			var resp inferResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || len(resp.Output) == 0 {
				t.Errorf("ok response %q did not decode into an output: %v", rec.Body.String(), err)
			}
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/infer", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want %d", rec.Code, http.StatusMethodNotAllowed)
	}
	// A full-precision float64 per pixel must still fit under the limit.
	full := `{"image":[` + strings.TrimSuffix(strings.Repeat("-1.7976931348623157e+308,", pixels), ",") + `]}`
	if int64(len(full)) > inferBodyLimit(in) {
		t.Errorf("a full-precision image is %d bytes, over the %d-byte limit", len(full), inferBodyLimit(in))
	}
}
