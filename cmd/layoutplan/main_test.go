package main

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"memcnn/internal/core"
	"memcnn/internal/gpusim"
	"memcnn/internal/layers"
	"memcnn/internal/layout"
	memruntime "memcnn/internal/runtime"
	"memcnn/internal/workloads"
)

// TestAlgsMarksTheCompiledChoice checks that the tool and the compiler agree:
// `layoutplan -algs` marks one row per convolution "<- chosen", and the marks
// are, layer for layer, the (layout, algorithm) of the program
// CompileWithOptions lowers from the same plan with algorithm selection on.
// The priced columns are the GPU model's, and the header says so.
func TestAlgsMarksTheCompiledChoice(t *testing.T) {
	nets, err := workloads.Networks()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"LeNet", "Cifar10", "AlexNet"} {
		var out bytes.Buffer
		if err := run([]string{"-network", name, "-algs"}, &out); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(out.String(), "times modeled on GTX Titan Black (Kepler GK110B), model-only") {
			t.Errorf("%s: the sweep's header does not label its columns model-only:\n%s", name, &out)
		}
		var got []string
		for _, line := range strings.Split(out.String(), "\n") {
			if !strings.Contains(line, "<- chosen") {
				continue
			}
			f := strings.Fields(line)
			lay := f[2] // the row's own layout, unless the mark names the plan's
			if !strings.HasSuffix(line, "<- chosen") {
				lay = f[len(f)-1]
			}
			got = append(got, fmt.Sprintf("%s %s %s", f[0], f[1], lay))
		}

		net := nets[name]
		plan, err := core.NewOptimizer(core.Options{Thresholds: layout.TitanBlackThresholds()}).Plan(gpusim.TitanBlack(), net)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		prog, err := memruntime.CompileWithOptions(plan, memruntime.Options{ConvAlgorithms: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var want []string
		for i, ch := range prog.Choices() {
			if _, ok := net.Layers[i].(*layers.Conv); ok {
				want = append(want, fmt.Sprintf("%s %v %v", net.Layers[i].Name(), ch.Alg, ch.Layout))
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: -algs marks %q as chosen, the compiled program runs %q", name, got, want)
		}
	}
}

// TestUnknownDeviceAndThresholdsFailClosed: a mistyped -device or -thresholds
// is an error naming the accepted values, not a plan priced on the default.
func TestUnknownDeviceAndThresholdsFailClosed(t *testing.T) {
	for _, tc := range []struct{ args, want []string }{
		{[]string{"-device", "titanz"}, []string{"titanz", "titanblack", "titanx"}},
		{[]string{"-thresholds", "papr"}, []string{"papr", "paper", "calibrated"}},
	} {
		var out bytes.Buffer
		err := run(tc.args, &out)
		if err == nil {
			t.Errorf("layoutplan %v succeeded:\n%s", tc.args, &out)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("layoutplan %v: error %q does not name %q", tc.args, err, w)
			}
		}
		if out.Len() != 0 {
			t.Errorf("layoutplan %v printed a plan before failing:\n%s", tc.args, &out)
		}
	}
}
