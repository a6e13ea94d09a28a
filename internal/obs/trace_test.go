package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.Record(Span{Name: "x"})
	r.SetLane(1, "lane")
	if r.Now() != 0 {
		t.Errorf("nil recorder Now = %d, want 0", r.Now())
	}
	if r.Len() != 0 || r.Cap() != 0 {
		t.Errorf("nil recorder Len/Cap = %d/%d, want 0/0", r.Len(), r.Cap())
	}
	if got := r.Snapshot(); got != nil {
		t.Errorf("nil recorder Snapshot = %v, want nil", got)
	}
	if err := r.WriteChromeTrace(&bytes.Buffer{}, 0); err == nil {
		t.Error("nil recorder WriteChromeTrace should error")
	}
}

func TestRecorderRingWraparound(t *testing.T) {
	const capacity = 8
	r := NewRecorder(capacity)
	if r.Cap() != capacity {
		t.Fatalf("Cap = %d, want %d", r.Cap(), capacity)
	}
	for i := 0; i < 3*capacity; i++ {
		r.Record(Span{Name: fmt.Sprintf("s%d", i), StartNS: int64(i)})
	}
	if r.Len() != 3*capacity {
		t.Fatalf("Len = %d, want %d", r.Len(), 3*capacity)
	}
	got := r.Snapshot()
	if len(got) != capacity {
		t.Fatalf("Snapshot retains %d spans, want %d", len(got), capacity)
	}
	// The ring must keep exactly the LAST capacity spans, oldest first.
	for i, sp := range got {
		want := fmt.Sprintf("s%d", 2*capacity+i)
		if sp.Name != want {
			t.Errorf("Snapshot[%d] = %q, want %q", i, sp.Name, want)
		}
	}
}

func TestRecorderDefaultCapacity(t *testing.T) {
	if got := NewRecorder(0).Cap(); got != DefaultCapacity {
		t.Errorf("NewRecorder(0).Cap() = %d, want %d", got, DefaultCapacity)
	}
}

func TestRecorderConcurrentRecord(t *testing.T) {
	r := NewRecorder(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Record(Span{Name: "s", Lane: int32(g), StartNS: r.Now()})
				r.SetLane(int32(g), "lane")
			}
		}(g)
	}
	wg.Wait()
	if r.Len() != 800 {
		t.Errorf("Len = %d, want 800", r.Len())
	}
}

// TestWriteChromeTraceRoundTrip parses the exported JSON back through the
// trace_event schema and checks every field a viewer depends on.
func TestWriteChromeTraceRoundTrip(t *testing.T) {
	r := NewRecorder(16)
	r.SetLane(1, "engine")
	r.SetLane(2, "server w0")
	r.Record(Span{
		Name: "conv1", Cat: CatOp, Lane: 1,
		StartNS: 1_500, DurNS: 2_000,
		Kind: "layer", Alg: "im2col+gemm", Layout: "NCHW", Images: 4,
	})
	r.Record(Span{Name: "batch", Cat: CatBatch, Lane: 2, StartNS: 4_000, DurNS: 500})

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf, 0); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int            `json:"pid"`
			TID  int32          `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) != 4 { // 2 metadata + 2 spans
		t.Fatalf("got %d events, want 4", len(trace.TraceEvents))
	}

	// Metadata events come first, sorted by lane, naming each thread.
	for i, wantName := range []string{"engine", "server w0"} {
		ev := trace.TraceEvents[i]
		if ev.Ph != "M" || ev.Name != "thread_name" {
			t.Fatalf("event %d = %+v, want thread_name metadata", i, ev)
		}
		if ev.TID != int32(i+1) || ev.Args["name"] != wantName {
			t.Errorf("metadata %d names tid %d %q, want tid %d %q", i, ev.TID, ev.Args["name"], i+1, wantName)
		}
	}

	op := trace.TraceEvents[2]
	if op.Ph != "X" || op.Name != "conv1" || op.Cat != "op" || op.PID != 1 || op.TID != 1 {
		t.Errorf("op event = %+v", op)
	}
	if op.TS != 1.5 || op.Dur != 2.0 { // ns -> us
		t.Errorf("op ts/dur = %g/%g us, want 1.5/2", op.TS, op.Dur)
	}
	for k, want := range map[string]any{
		"kind": "layer", "alg": "im2col+gemm", "layout": "NCHW", "images": 4.0,
	} {
		if got := op.Args[k]; got != want {
			t.Errorf("op args[%q] = %v, want %v", k, got, want)
		}
	}
	if batch := trace.TraceEvents[3]; batch.Cat != "batch" || batch.Args != nil {
		t.Errorf("batch event = %+v, want cat=batch with no args", batch)
	}
}

func TestWriteChromeTraceLast(t *testing.T) {
	r := NewRecorder(16)
	for i := 0; i < 10; i++ {
		r.Record(Span{Name: fmt.Sprintf("s%d", i), Cat: CatRun, Lane: 1})
	}
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf, 3); err != nil {
		t.Fatal(err)
	}
	var trace chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	names := []string{}
	for _, ev := range trace.TraceEvents {
		names = append(names, ev.Name)
	}
	if got, want := strings.Join(names, ","), "s7,s8,s9"; got != want {
		t.Errorf("last=3 exported %q, want %q", got, want)
	}
}

func TestCategoryStrings(t *testing.T) {
	want := map[Category]string{
		CatOp: "op", CatRun: "run", CatStage: "stage", CatReplica: "replica",
		CatQueue: "queue", CatCoalesce: "coalesce", CatBatch: "batch",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("Category(%d).String() = %q, want %q", c, c.String(), s)
		}
	}
	if got := Category(200).String(); got != "Category(200)" {
		t.Errorf("unknown category = %q", got)
	}
}

// TestRecordAllocationFree pins the hot-path contract: recording into the
// ring, reading the clock and observing a histogram must not allocate —
// neither enabled nor disabled (nil receiver).
func TestRecordAllocationFree(t *testing.T) {
	r := NewRecorder(32)
	sp := Span{Name: "op", Cat: CatOp, Lane: 1, Kind: "layer"}
	if n := testing.AllocsPerRun(200, func() {
		sp.StartNS = r.Now()
		sp.DurNS = r.Now() - sp.StartNS
		r.Record(sp)
	}); n != 0 {
		t.Errorf("enabled Record allocates %.1f per span, want 0", n)
	}
	var nilRec *Recorder
	if n := testing.AllocsPerRun(200, func() {
		sp.StartNS = nilRec.Now()
		nilRec.Record(sp)
	}); n != 0 {
		t.Errorf("nil Record allocates %.1f per span, want 0", n)
	}
}
