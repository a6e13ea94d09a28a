package bench

import (
	"strings"
	"testing"

	"memcnn/internal/gpusim"
	"memcnn/internal/layout"
	"memcnn/internal/tensor"
)

func device() *gpusim.Device        { return gpusim.TitanBlack() }
func thresholds() layout.Thresholds { return layout.TitanBlackThresholds() }

func TestTableFormatting(t *testing.T) {
	tbl := Table{
		Title:   "demo",
		Headers: []string{"a", "longer-column"},
		Rows:    [][]string{{"1", "2"}, {"333333", "4"}},
		Notes:   []string{"a note"},
	}
	out := tbl.String()
	for _, want := range []string{"demo", "longer-column", "333333", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted table missing %q:\n%s", want, out)
		}
	}
}

func TestFigure1ShapeMatchesPaper(t *testing.T) {
	rows, tbl := Figure1(device())
	if len(rows) != 8 {
		t.Fatalf("Fig. 1 compares 5 conv + 3 pool layers, got %d rows", len(rows))
	}
	if tbl.String() == "" {
		t.Error("table must render")
	}
	// The first AlexNet convolution (C=3) and all pooling layers prefer
	// CHWN, i.e. the normalised NCHW bar is above 1.
	if rows[0].NCHWNormalized <= 1 {
		t.Errorf("CV1: NCHW/CHWN = %.2f, want > 1", rows[0].NCHWNormalized)
	}
	for _, r := range rows[5:] {
		if r.NCHWNormalized <= 1 {
			t.Errorf("%s: pooling should prefer CHWN (ratio %.2f)", r.Layer, r.NCHWNormalized)
		}
	}
	// At least one of the deeper convolutions prefers NCHW, showing that a
	// single layout cannot win everywhere.
	anyNCHW := false
	for _, r := range rows[1:5] {
		if r.NCHWNormalized < 1 {
			anyNCHW = true
		}
	}
	if !anyNCHW {
		t.Error("at least one AlexNet convolution should prefer NCHW")
	}
}

func TestFigure3WinnersMatchPaper(t *testing.T) {
	rows, _ := Figure3(device())
	if len(rows) != 12 {
		t.Fatalf("Fig. 3 covers 12 layers, got %d", len(rows))
	}
	wantCHWN := map[string]bool{"CV1": true, "CV2": true, "CV3": true, "CV4": true, "CV5": true, "CV9": true}
	for _, r := range rows {
		if r.CHWNWins != wantCHWN[r.Layer] {
			t.Errorf("%s: CHWN wins = %v, paper says %v", r.Layer, r.CHWNWins, wantCHWN[r.Layer])
		}
	}
}

func TestFigure4SeriesShapes(t *testing.T) {
	nPts, _ := Figure4N(device())
	if len(nPts) != 9 {
		t.Fatalf("Fig. 4a sweeps 9 batch sizes, got %d", len(nPts))
	}
	if !nPts[len(nPts)-1].CHWNPrefers || nPts[0].CHWNPrefers {
		t.Error("Fig. 4a: CHWN should lose at N=1 and win at N=512")
	}
	cPts, _ := Figure4C(device())
	if len(cPts) != 5 {
		t.Fatalf("Fig. 4b sweeps 5 channel counts, got %d", len(cPts))
	}
	if !cPts[0].CHWNPrefers || cPts[len(cPts)-1].CHWNPrefers {
		t.Error("Fig. 4b: CHWN should win at C=16 and lose at C=256")
	}
}

func TestFigure5OOMRows(t *testing.T) {
	rows, tbl := Figure5(device())
	if len(rows) != 12 {
		t.Fatalf("Fig. 5 covers 12 layers, got %d", len(rows))
	}
	byName := map[string]Figure5Row{}
	for _, r := range rows {
		byName[r.Layer] = r
	}
	if !byName["CV5"].FFTOOM || !byName["CV6"].FFTOOM {
		t.Error("CV5 and CV6 should fail with OOM in the full FFT mode")
	}
	if byName["CV7"].FFTOOM {
		t.Error("CV7 should fit in memory")
	}
	if byName["CV7"].FFTSpeedup <= byName["CV7"].MMSpeedup {
		t.Error("CV7: the FFT mode should beat the MM mode")
	}
	if byName["CV9"].FFTSpeedup >= byName["CV9"].MMSpeedup {
		t.Error("CV9 (C=3): the FFT mode should lose to the MM mode")
	}
	if !strings.Contains(tbl.String(), "OOM") {
		t.Error("the rendered table should mark OOM failures")
	}
}

func TestFigure6CHWNAlwaysWins(t *testing.T) {
	rows, _ := Figure6(device())
	if len(rows) != 10 {
		t.Fatalf("Fig. 6 covers 10 pooling layers, got %d", len(rows))
	}
	for _, r := range rows {
		if r.CaffeSpeedup >= 1 || r.CuDNNSpeedup >= 1 {
			t.Errorf("%s: NCHW pooling should be slower than CHWN (Caffe %.2f, cuDNN %.2f)", r.Layer, r.CaffeSpeedup, r.CuDNNSpeedup)
		}
		if r.CHWNBandwidthGB <= 0 || r.CHWNBandwidthGB > 235 {
			t.Errorf("%s: CHWN bandwidth %.1f GB/s out of range", r.Layer, r.CHWNBandwidthGB)
		}
	}
}

func TestFigure10TransformOverheadOrdering(t *testing.T) {
	rows, _ := Figure10(device())
	if len(rows) != 12 {
		t.Fatalf("Fig. 10 covers 12 layers, got %d", len(rows))
	}
	for _, r := range rows {
		if r.OptSpeedup < 1 {
			t.Errorf("%s: the preferred layout should not lose to the alternative (%.2f)", r.Layer, r.OptSpeedup)
		}
		if r.OptTransSpeedup > r.OptSpeedup {
			t.Errorf("%s: adding transform overhead cannot increase the speedup", r.Layer)
		}
		if r.NaiveTransSpeed > r.OptTransSpeedup {
			t.Errorf("%s: the naive transform cannot beat the optimised transform", r.Layer)
		}
	}
}

func TestFigure11OrderingAndPeak(t *testing.T) {
	rows, _ := Figure11(device())
	if len(rows) != 12 {
		t.Fatalf("Fig. 11 covers 12 layers, got %d", len(rows))
	}
	var bestVec float64
	for _, r := range rows {
		if r.TiledGBs <= r.NaiveGBs {
			t.Errorf("%s: Opt1 (%.1f GB/s) must beat naive (%.1f GB/s)", r.Layer, r.TiledGBs, r.NaiveGBs)
		}
		if r.VecApplic && r.VecGBs <= r.TiledGBs {
			t.Errorf("%s: Opt2 (%.1f GB/s) must beat Opt1 (%.1f GB/s)", r.Layer, r.VecGBs, r.TiledGBs)
		}
		if r.VecGBs > bestVec {
			bestVec = r.VecGBs
		}
	}
	// The paper reports 229.5 GB/s (97.6% of the 235 GB/s effective
	// bandwidth) for the best case.
	if bestVec < 0.9*235 {
		t.Errorf("best vectorised transform bandwidth %.1f GB/s, want >= 90%% of effective", bestVec)
	}
	// N=32 layers (VGG) cannot use the vectorised kernel.
	for _, r := range rows {
		if strings.HasPrefix(r.Layer, "CV1") && (r.Layer == "CV10" || r.Layer == "CV11" || r.Layer == "CV12") && r.VecApplic {
			t.Errorf("%s: vectorised transform should not apply to N=32", r.Layer)
		}
	}
}

func TestFigure12OptimizedPoolingWins(t *testing.T) {
	rows, _ := Figure12(device())
	if len(rows) != 10 {
		t.Fatalf("Fig. 12 covers 10 pooling layers, got %d", len(rows))
	}
	improved := 0
	for _, r := range rows {
		if r.OptSpeedup < 1 {
			t.Errorf("%s: the optimised pooling kernel should not lose to cuda-convnet (%.2f)", r.Layer, r.OptSpeedup)
		}
		if r.OptSpeedup > 1.01 {
			improved++
		}
		if r.OptSpeedup > 1.01 && r.OptReadSavingPc <= 0 {
			t.Errorf("%s: a speedup should come with a DRAM read reduction", r.Layer)
		}
	}
	// All overlapped pooling layers (8 of 10) should benefit from the
	// register-reuse optimisation.
	if improved < 8 {
		t.Errorf("only %d pooling layers improved, expected the 8 overlapped ones", improved)
	}
}

func TestFigure13BandwidthShape(t *testing.T) {
	rows, _ := Figure13(device())
	if len(rows) != 12 {
		t.Fatalf("Fig. 13 covers 12 configurations, got %d", len(rows))
	}
	var maxOpt, maxBase float64
	for _, r := range rows {
		if r.OptGBs < r.BaselineGBs {
			t.Errorf("%s: optimised softmax bandwidth (%.1f) below baseline (%.1f)", r.Config, r.OptGBs, r.BaselineGBs)
		}
		if r.OptGBs > maxOpt {
			maxOpt = r.OptGBs
		}
		if r.BaselineGBs > maxBase {
			maxBase = r.BaselineGBs
		}
	}
	if maxOpt < 0.75*235 {
		t.Errorf("best optimised softmax bandwidth %.1f GB/s, want >= 75%% of effective (paper: 94%%)", maxOpt)
	}
	if maxBase > 0.5*235 {
		t.Errorf("best baseline bandwidth %.1f GB/s should stay well below peak (paper: 58.3 GB/s)", maxBase)
	}
}

func TestFigure14OptimizedWins(t *testing.T) {
	rows, tbl, err := Figure14(device(), thresholds())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("Fig. 14 covers 5 networks, got %d", len(rows))
	}
	for _, r := range rows {
		opt := r.Speedups["Opt"]
		for planner, sp := range r.Speedups {
			if planner == "Opt" {
				continue
			}
			if opt < sp*0.999 {
				t.Errorf("%s: Opt speedup %.2f below %s %.2f", r.Network, opt, planner, sp)
			}
		}
	}
	// LeNet: large speedup over cuDNN-MM (paper: 5.61x).
	if rows[0].Network != "LeNet" || rows[0].Speedups["Opt"] < 2 {
		t.Errorf("LeNet Opt speedup %.2f, expected a large factor", rows[0].Speedups["Opt"])
	}
	if tbl.String() == "" {
		t.Error("table must render")
	}
}

func TestFigure15LayoutStory(t *testing.T) {
	rows, _, err := Figure15(device(), thresholds())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Figure15Row{}
	for _, r := range rows {
		byName[r.Layer] = r
	}
	if byName["conv1"].OptLayout != tensor.CHWN.String() {
		t.Errorf("conv1 should run in CHWN, got %s", byName["conv1"].OptLayout)
	}
	for _, l := range []string{"conv3", "conv4", "conv5"} {
		if byName[l].OptLayout != tensor.NCHW.String() {
			t.Errorf("%s should run in NCHW, got %s", l, byName[l].OptLayout)
		}
	}
	// The softmax layer shows a large speedup over cuDNN (paper: up to 20.1x).
	if byName["prob"].OptSpeedup < 2 {
		t.Errorf("softmax Opt speedup %.2f, expected a large factor", byName["prob"].OptSpeedup)
	}
	// On the convolution layers Opt should never lose to the cuDNN-MM
	// baseline it is normalised against (it can always pick the same NCHW
	// GEMM implementation).
	for _, l := range []string{"conv1", "conv2", "conv3", "conv4", "conv5"} {
		if byName[l].OptSpeedup < 0.99 {
			t.Errorf("%s: Opt speedup %.2f below the cuDNN-MM baseline", l, byName[l].OptSpeedup)
		}
	}
}

func TestSoftmaxAblationContributions(t *testing.T) {
	rows, _ := SoftmaxAblation(device())
	if len(rows) != 12 {
		t.Fatalf("expected 12 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.FusionSpeedup < 1 || r.ParallelSpeedup < 1 {
			t.Errorf("%s: both optimisation steps must contribute (fusion %.2f, parallel %.2f)", r.Config, r.FusionSpeedup, r.ParallelSpeedup)
		}
	}
}

func TestPoolingAblationCloseToExhaustive(t *testing.T) {
	rows, _ := PoolingAblation(device())
	if len(rows) != 10 {
		t.Fatalf("expected 10 rows, got %d", len(rows))
	}
	for _, r := range rows {
		// Hill climbing is a heuristic: ceiling effects on small feature
		// maps can leave it in a local optimum, so a modest gap is allowed.
		if r.WithinPct > 15 {
			t.Errorf("%s: hill climbing is %.1f%% away from the exhaustive optimum", r.Layer, r.WithinPct)
		}
		if r.TunedProbes >= r.ExhaustiveProbes {
			t.Errorf("%s: hill climbing should probe fewer points than exhaustive search", r.Layer)
		}
	}
}

func TestHeuristicAccuracyAllAgree(t *testing.T) {
	rows, _ := HeuristicAccuracy(device(), thresholds())
	for _, r := range rows {
		if !r.Agree {
			t.Errorf("%s: heuristic %v disagrees with oracle %v", r.Layer, r.Heuristic, r.Oracle)
		}
	}
}

func TestThresholdCalibrationRows(t *testing.T) {
	rows, _ := ThresholdCalibration()
	if len(rows) != 2 {
		t.Fatalf("expected both devices, got %d rows", len(rows))
	}
	for _, r := range rows {
		if !r.Calibrated.Valid() {
			t.Errorf("%s: invalid calibrated thresholds", r.Device)
		}
	}
}

func TestTitanXSummaryTrends(t *testing.T) {
	rows, _, err := TitanXSummary()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("expected LeNet and VGG, got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.OverCudaConvnet < 1 || r.OverCaffe < 1 || r.OverCuDNNBest < 0.999 {
			t.Errorf("%s: the optimised framework should not lose on the Titan X (%.2f / %.2f / %.2f)",
				r.Network, r.OverCudaConvnet, r.OverCaffe, r.OverCuDNNBest)
		}
	}
}

func TestTrainingStepKeepsLayoutPreference(t *testing.T) {
	rows, tbl := TrainingStep(device())
	if len(rows) != 12 {
		t.Fatalf("expected 12 layers, got %d", len(rows))
	}
	for _, r := range rows {
		if !r.SamePreference {
			t.Errorf("%s: the training step flips the layout preference (fwd CHWN=%v, train CHWN=%v)",
				r.Layer, r.ForwardPrefCHWN, r.TrainPrefCHWN)
		}
		if r.TrainingCHWNUS <= r.ForwardCHWNUS || r.TrainingNCHWUS <= r.ForwardNCHWUS {
			t.Errorf("%s: a training step must cost more than the forward pass alone", r.Layer)
		}
	}
	if tbl.String() == "" {
		t.Error("table must render")
	}
}

func TestTable1InventoryComplete(t *testing.T) {
	tbl := Table1Inventory()
	if len(tbl.Rows) != 12+10+5 {
		t.Errorf("Table 1 inventory has %d rows, want 27", len(tbl.Rows))
	}
}

func TestExperimentsRegistryRunsEverything(t *testing.T) {
	d := device()
	th := thresholds()
	m := Experiments(d, th)
	if len(m) < 19 {
		t.Fatalf("expected at least 19 experiments, got %d", len(m))
	}
	for name, run := range m {
		tbl, err := run()
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if len(tbl.Rows) == 0 {
			t.Errorf("%s: empty table", name)
		}
	}
}
