package bench

import (
	"fmt"

	"memcnn/internal/core"
	"memcnn/internal/frameworks"
	"memcnn/internal/gpusim"
	"memcnn/internal/layout"
	"memcnn/internal/network"
	"memcnn/internal/workloads"
)

// Priced is one policy's plan of a network and the plan's modeled estimate.
type Priced struct {
	Plan     *network.ExecutionPlan
	Estimate network.Estimate
}

// PricePolicies plans net under each policy in turn and prices every plan on
// d, in the policies' order.
func PricePolicies(d *gpusim.Device, net *network.Network, policies []core.Policy) ([]Priced, error) {
	priced := make([]Priced, 0, len(policies))
	for _, p := range policies {
		plan, err := p.Plan(d, net)
		if err != nil {
			return nil, fmt.Errorf("bench: %s on %s: %w", p.Name, net.Name, err)
		}
		est, err := plan.Estimate()
		if err != nil {
			return nil, fmt.Errorf("bench: %s on %s: %w", p.Name, net.Name, err)
		}
		priced = append(priced, Priced{Plan: plan, Estimate: est})
	}
	return priced, nil
}

// Figure14Row is one network of Fig. 14: the speedup of every mechanism over
// the cuDNN-MM baseline.
type Figure14Row struct {
	Network  string
	TimesUS  map[string]float64 // planner name -> total time
	Speedups map[string]float64 // planner name -> speedup over cuDNN-MM
}

// plannerOrder is the presentation order of Fig. 14's bars.
var plannerOrder = []string{"cuDNN-MM", "cuDNN-FFT", "cuDNN-FFT-T", "cuda-convnet", "cuDNN-Best", "Opt"}

// Figure14 regenerates Fig. 14: the whole-network comparison of the six
// mechanisms on the five networks.
func Figure14(d *gpusim.Device, th layout.Thresholds) ([]Figure14Row, Table, error) {
	nets, err := workloads.Networks()
	if err != nil {
		return nil, Table{}, err
	}
	var rows []Figure14Row
	for _, name := range workloads.NetworkOrder {
		priced, err := PricePolicies(d, nets[name], frameworks.All(th))
		if err != nil {
			return nil, Table{}, err
		}
		row := Figure14Row{Network: name, TimesUS: map[string]float64{}, Speedups: map[string]float64{}}
		for _, p := range priced {
			row.TimesUS[p.Estimate.PlannerName] = p.Estimate.TotalUS
		}
		base := row.TimesUS["cuDNN-MM"]
		for planner, us := range row.TimesUS {
			row.Speedups[planner] = base / us
		}
		rows = append(rows, row)
	}
	t := Table{
		Title:   "Figure 14: whole-network speedup normalised to cuDNN-MM",
		Headers: append([]string{"network"}, plannerOrder...),
	}
	for _, r := range rows {
		cells := []string{r.Network}
		for _, p := range plannerOrder {
			cells = append(cells, f2(r.Speedups[p]))
		}
		t.Rows = append(t.Rows, cells)
	}
	return rows, t, nil
}

// Figure15Row is one AlexNet layer of Fig. 15: per-layer speedups normalised
// to cuDNN-MM, plus the layout the optimiser chose.
type Figure15Row struct {
	Layer              string
	CuDNNUS            float64
	CudaConvnetSpeedup float64
	OptSpeedup         float64
	OptLayout          string
	OptTransformUS     float64
}

// Figure15 regenerates Fig. 15: the per-layer breakdown of AlexNet under
// cuDNN-MM, cuda-convnet and the optimised framework.
func Figure15(d *gpusim.Device, th layout.Thresholds) ([]Figure15Row, Table, error) {
	net, err := workloads.AlexNet()
	if err != nil {
		return nil, Table{}, err
	}
	priced, err := PricePolicies(d, net, []core.Policy{frameworks.CuDNN(frameworks.CuDNNMM), frameworks.CudaConvnet(), frameworks.Optimized(th)})
	if err != nil {
		return nil, Table{}, err
	}
	cudnn, cc, opt := priced[0].Estimate, priced[1].Estimate, priced[2].Estimate

	var rows []Figure15Row
	for i := range cudnn.PerLayer {
		base := cudnn.PerLayer[i]
		rows = append(rows, Figure15Row{
			Layer:              base.Name,
			CuDNNUS:            base.Total(),
			CudaConvnetSpeedup: base.Total() / cc.PerLayer[i].Total(),
			OptSpeedup:         base.Total() / opt.PerLayer[i].Total(),
			OptLayout:          opt.PerLayer[i].Layout.String(),
			OptTransformUS:     opt.PerLayer[i].TransformUS,
		})
	}
	t := Table{
		Title:   "Figure 15: AlexNet per-layer speedup normalised to cuDNN-MM",
		Headers: []string{"layer", "cuDNN-MM us", "cuda-convnet", "Opt", "Opt layout", "Opt transform us"},
		Notes: []string{
			fmt.Sprintf("whole-network: cuda-convnet %.2fx, Opt %.2fx over cuDNN-MM; Opt spends %.0fus in %d transforms",
				cudnn.TotalUS/cc.TotalUS, cudnn.TotalUS/opt.TotalUS, opt.TransformUS, priced[2].Plan.TransformCount()),
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Layer, f1(r.CuDNNUS), f2(r.CudaConvnetSpeedup), f2(r.OptSpeedup), r.OptLayout, f1(r.OptTransformUS)})
	}
	return rows, t, nil
}

// CalibrationRow is one device's calibrated thresholds.
type CalibrationRow struct {
	Device     string
	Calibrated layout.Thresholds
	Published  layout.Thresholds
}

// ThresholdCalibration calibrates the layout thresholds on both modelled
// devices and lists them next to the paper's published values.
func ThresholdCalibration() ([]CalibrationRow, Table) {
	rows := []CalibrationRow{
		{Device: "GTX Titan Black", Calibrated: layout.Calibrate(gpusim.TitanBlack()), Published: layout.TitanBlackThresholds()},
		{Device: "GTX Titan X", Calibrated: layout.Calibrate(gpusim.TitanX()), Published: layout.TitanXThresholds()},
	}
	t := Table{
		Title:   "Layout-selection threshold calibration (one-time per device)",
		Headers: []string{"device", "calibrated (Ct, Nt)", "published (Ct, Nt)"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Device, r.Calibrated.String(), r.Published.String()})
	}
	return rows, t
}

// TitanXRow is one network of the Section VI.C Titan X summary.
type TitanXRow struct {
	Network            string
	OverCudaConvnet    float64
	OverCaffe          float64
	OverCuDNNBest      float64
	OptTimeUS          float64
	CuDNNBestTimeUS    float64
	CudaConvnetTimeUS  float64
	CaffeTimeUS        float64
	calibrationApplied layout.Thresholds
}

// TitanXSummary regenerates the Section VI.C cross-device check: the same
// trends on the Titan X model for the small MNIST network and for VGG.
func TitanXSummary() ([]TitanXRow, Table, error) {
	d := gpusim.TitanX()
	th := layout.Calibrate(d)
	nets, err := workloads.Networks()
	if err != nil {
		return nil, Table{}, err
	}
	policies := []core.Policy{frameworks.CudaConvnet(), frameworks.Caffe(), frameworks.CuDNN(frameworks.CuDNNBest), frameworks.Optimized(th)}
	var rows []TitanXRow
	for _, name := range []string{"LeNet", "VGG"} {
		priced, err := PricePolicies(d, nets[name], policies)
		if err != nil {
			return nil, Table{}, err
		}
		times := map[string]float64{}
		for _, p := range priced {
			times[p.Estimate.PlannerName] = p.Estimate.TotalUS
		}
		rows = append(rows, TitanXRow{
			Network:            name,
			OverCudaConvnet:    times["cuda-convnet"] / times["Opt"],
			OverCaffe:          times["Caffe"] / times["Opt"],
			OverCuDNNBest:      times["cuDNN-Best"] / times["Opt"],
			OptTimeUS:          times["Opt"],
			CuDNNBestTimeUS:    times["cuDNN-Best"],
			CudaConvnetTimeUS:  times["cuda-convnet"],
			CaffeTimeUS:        times["Caffe"],
			calibrationApplied: th,
		})
	}
	t := Table{
		Title:   fmt.Sprintf("Section VI.C: Titan X summary (calibrated thresholds %v)", th),
		Headers: []string{"network", "Opt vs cuda-convnet", "Opt vs Caffe", "Opt vs cuDNN-Best"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Network, f2(r.OverCudaConvnet), f2(r.OverCaffe), f2(r.OverCuDNNBest)})
	}
	return rows, t, nil
}

// Table1Inventory formats the Table 1 layer inventory (the workload table the
// rest of the experiments draw from).
func Table1Inventory() Table {
	t := Table{
		Title:   "Table 1: benchmark layer configurations",
		Headers: []string{"layer", "network", "configuration"},
	}
	for _, c := range workloads.Table1Convs() {
		t.Rows = append(t.Rows, []string{c.Name, c.Network, c.Cfg.String()})
	}
	for _, p := range workloads.Table1Pools() {
		t.Rows = append(t.Rows, []string{p.Name, p.Network, p.Cfg.String()})
	}
	for _, s := range workloads.Table1Softmax() {
		t.Rows = append(t.Rows, []string{s.Name, s.Network, s.Cfg.String()})
	}
	return t
}

// Experiments lists every named experiment the harness can run, mapped to a
// function that renders its table.  cmd/netbench prints each one as a view.
func Experiments(d *gpusim.Device, th layout.Thresholds) map[string]func() (Table, error) {
	m := map[string]func() (Table, error){
		"table1":           func() (Table, error) { return Table1Inventory(), nil },
		"fig1":             func() (Table, error) { _, t := Figure1(d); return t, nil },
		"fig3":             func() (Table, error) { _, t := Figure3(d); return t, nil },
		"fig4a":            func() (Table, error) { _, t := Figure4N(d); return t, nil },
		"fig4b":            func() (Table, error) { _, t := Figure4C(d); return t, nil },
		"fig5":             func() (Table, error) { _, t := Figure5(d); return t, nil },
		"fig6":             func() (Table, error) { _, t := Figure6(d); return t, nil },
		"fig10":            func() (Table, error) { _, t := Figure10(d); return t, nil },
		"fig11":            func() (Table, error) { _, t := Figure11(d); return t, nil },
		"fig12":            func() (Table, error) { _, t := Figure12(d); return t, nil },
		"fig13":            func() (Table, error) { _, t := Figure13(d); return t, nil },
		"fig14":            func() (Table, error) { _, t, err := Figure14(d, th); return t, err },
		"fig15":            func() (Table, error) { _, t, err := Figure15(d, th); return t, err },
		"softmax-ablation": func() (Table, error) { _, t := SoftmaxAblation(d); return t, nil },
		"training":         func() (Table, error) { _, t := TrainingStep(d); return t, nil },
		"pooling-ablation": func() (Table, error) { _, t := PoolingAblation(d); return t, nil },
		"heuristic":        func() (Table, error) { _, t := HeuristicAccuracy(d, th); return t, nil },
		"calibration":      func() (Table, error) { _, t := ThresholdCalibration(); return t, nil },
		"titanx":           func() (Table, error) { _, t, err := TitanXSummary(); return t, err },
	}
	return m
}
