package main

import (
	"bytes"
	"strings"
	"testing"

	"memcnn/internal/bench"
	"memcnn/internal/gpusim"
	"memcnn/internal/layout"
)

func TestListNamesEveryExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, name := range bench.ExperimentNames(gpusim.TitanBlack(), layout.TitanBlackThresholds()) {
		if !strings.Contains(out.String(), "  "+name+"\n") {
			t.Errorf("-list does not name %q:\n%s", name, &out)
		}
	}
}

// TestFig14IsTheTableNetbenchPrints: `layerbench -experiment fig14` and plain
// `netbench` both print bench.Figure14's table (cmd/netbench's test pins the
// other side).
func TestFig14IsTheTableNetbenchPrints(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-experiment", "fig14"}, &out); err != nil {
		t.Fatal(err)
	}
	_, table, err := bench.Figure14(gpusim.TitanBlack(), layout.TitanBlackThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "== fig14 ==\n"+table.String()) {
		t.Errorf("-experiment fig14 does not print bench.Figure14's table:\n%s", &out)
	}
}

// TestBadArgumentsAreErrors: an unknown experiment, device or thresholds
// comes back from run as an error naming what is accepted, with no report
// printed (the command used to os.Exit from the middle of main).
func TestBadArgumentsAreErrors(t *testing.T) {
	for _, tc := range []struct{ args, want []string }{
		{[]string{"-experiment", "fig99"}, []string{"fig99", "-list"}},
		{[]string{"-device", "titanz"}, []string{"titanz", "titanblack", "titanx"}},
		{[]string{"-thresholds", "papr", "-list"}, []string{"papr", "paper", "calibrated"}},
	} {
		var out bytes.Buffer
		err := run(tc.args, &out)
		if err == nil {
			t.Errorf("layerbench %v succeeded:\n%s", tc.args, &out)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("layerbench %v: error %q does not name %q", tc.args, err, w)
			}
		}
		if strings.Contains(out.String(), "==") {
			t.Errorf("layerbench %v printed a table before failing:\n%s", tc.args, &out)
		}
	}
}
