package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"memcnn/internal/bench"
	"memcnn/internal/gpusim"
	"memcnn/internal/layout"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/model.golden from the views netbench prints now")

const modelGolden = "testdata/model.golden"

// TestModelViewsAreStable pins the model domain byte for byte: every view
// netbench prices on a GPU model (each experiment, plan and algs) on both
// devices under both threshold sets.  Each line holds one output's line count
// and sha256.  A refactor of the cost models must leave the file untouched
// (go test ./cmd/netbench -run ModelViewsAreStable -update rewrites it when a
// change is meant to move a modeled number).
func TestModelViewsAreStable(t *testing.T) {
	var views []string
	for name := range bench.Experiments(gpusim.TitanBlack(), layout.TitanBlackThresholds()) {
		views = append(views, name)
	}
	slices.Sort(views)
	views = append(views, "plan", "algs")

	var lines []string
	for _, device := range []string{"titanblack", "titanx"} {
		for _, th := range []string{"paper", "calibrated"} {
			for _, view := range views {
				var out bytes.Buffer
				if err := run([]string{"-device", device, "-thresholds", th, view}, &out); err != nil {
					t.Fatalf("netbench -device %s -thresholds %s %s: %v", device, th, view, err)
				}
				lines = append(lines, fmt.Sprintf("%s %s %s lines=%d sha256=%x",
					device, th, view, strings.Count(out.String(), "\n"), sha256.Sum256(out.Bytes())))
			}
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(modelGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(modelGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(want) != len(lines) {
		t.Fatalf("%d views printed, %s records %d", len(lines), modelGolden, len(want))
	}
	for i, line := range lines {
		if line != want[i] {
			t.Errorf("modeled view changed:\n got %s\nwant %s", line, want[i])
		}
	}
}
