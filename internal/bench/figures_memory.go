package bench

import (
	"fmt"

	"memcnn/internal/autotune"
	"memcnn/internal/gpusim"
	"memcnn/internal/kernels"
	"memcnn/internal/workloads"
)

// Figure6Row is one pooling layer of Fig. 6: the NCHW libraries' speedup
// relative to cuda-convnet (values below 1 mean they are slower) and the
// bandwidth achieved by the CHWN kernel.
type Figure6Row struct {
	Layer           string
	CHWNTimeUS      float64
	CaffeSpeedup    float64
	CuDNNSpeedup    float64
	CHWNBandwidthGB float64
}

// Figure6 regenerates Fig. 6: the pooling-layer layout comparison.
func Figure6(d *gpusim.Device) ([]Figure6Row, Table) {
	var rows []Figure6Row
	for _, p := range workloads.Table1Pools() {
		chwn := gpusim.EstimateTime(d, gpusim.PoolCHWNCost(d, p.Cfg))
		caffe := gpusim.EstimateTime(d, gpusim.PoolNCHWCost(d, p.Cfg, gpusim.PoolPlain)).TotalUS
		cudnn := gpusim.EstimateTime(d, gpusim.PoolNCHWCost(d, p.Cfg, gpusim.PoolCuDNN)).TotalUS
		rows = append(rows, Figure6Row{
			Layer:           p.Name,
			CHWNTimeUS:      chwn.TotalUS,
			CaffeSpeedup:    chwn.TotalUS / caffe,
			CuDNNSpeedup:    chwn.TotalUS / cudnn,
			CHWNBandwidthGB: chwn.AchievedBandwidthGBs,
		})
	}
	t := Table{
		Title:   "Figure 6: pooling with different layouts, normalised to cuda-convnet (CHWN); bandwidth is the CHWN kernel's",
		Headers: []string{"layer", "cuda-convnet", "Caffe", "cuDNN", "CHWN GB/s"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Layer, "1.00", f2(r.CaffeSpeedup), f2(r.CuDNNSpeedup), f1(r.CHWNBandwidthGB)})
	}
	return rows, t
}

// Figure12Row is one pooling layer of Fig. 12: the four implementations
// normalised to cuda-convnet, plus the optimised kernel's details.
type Figure12Row struct {
	Layer           string
	CaffeSpeedup    float64
	CuDNNSpeedup    float64
	OptSpeedup      float64
	OptBandwidthGB  float64
	OptExpansion    kernels.PoolExpansion
	OptReadSavingPc float64 // DRAM read reduction vs the plain CHWN kernel
}

// Figure12 regenerates Fig. 12: the optimised (register-reuse, auto-tuned)
// pooling kernel against the three libraries.
func Figure12(d *gpusim.Device) ([]Figure12Row, Table) {
	var rows []Figure12Row
	for _, p := range workloads.Table1Pools() {
		base := gpusim.EstimateTime(d, gpusim.PoolCHWNCost(d, p.Cfg))
		caffe := gpusim.EstimateTime(d, gpusim.PoolNCHWCost(d, p.Cfg, gpusim.PoolPlain)).TotalUS
		cudnn := gpusim.EstimateTime(d, gpusim.PoolNCHWCost(d, p.Cfg, gpusim.PoolCuDNN)).TotalUS
		expansion, _, err := autotune.TunePoolExpansion(p.Cfg, gpusim.PoolCoarsenedTimeUS(d, p.Cfg))
		if err != nil {
			expansion = kernels.PoolExpansion{H: 2, W: 2}
		}
		optStats := gpusim.PoolCHWNCoarsenedCost(d, p.Cfg, expansion)
		opt := gpusim.EstimateTime(d, optStats)
		saving := 0.0
		if base.Stats.DRAMReadBytes > 0 {
			saving = 100 * (1 - optStats.DRAMReadBytes/base.Stats.DRAMReadBytes)
		}
		rows = append(rows, Figure12Row{
			Layer:           p.Name,
			CaffeSpeedup:    base.TotalUS / caffe,
			CuDNNSpeedup:    base.TotalUS / cudnn,
			OptSpeedup:      base.TotalUS / opt.TotalUS,
			OptBandwidthGB:  opt.AchievedBandwidthGBs,
			OptExpansion:    expansion,
			OptReadSavingPc: saving,
		})
	}
	t := Table{
		Title:   "Figure 12: pooling implementations normalised to cuda-convnet; Opt = CHWN + auto-tuned register reuse",
		Headers: []string{"layer", "cuda-convnet", "Caffe", "cuDNN", "Opt", "Opt GB/s", "expansion", "DRAM read saved %"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Layer, "1.00", f2(r.CaffeSpeedup), f2(r.CuDNNSpeedup), f2(r.OptSpeedup),
			f1(r.OptBandwidthGB), fmt.Sprintf("%dx%d", r.OptExpansion.H, r.OptExpansion.W), f1(r.OptReadSavingPc),
		})
	}
	return rows, t
}

// Figure13Row is one configuration of Fig. 13: the best baseline softmax
// bandwidth against the optimised fused kernel.
type Figure13Row struct {
	Config      string
	BaselineGBs float64
	OptGBs      float64
	Speedup     float64
}

// Figure13 regenerates Fig. 13: softmax memory bandwidth across batch and
// category configurations.
func Figure13(d *gpusim.Device) ([]Figure13Row, Table) {
	var rows []Figure13Row
	for _, s := range workloads.SoftmaxSweep() {
		baseStats, _ := gpusim.SoftmaxBaselineBest(d, s.Cfg)
		base := gpusim.EstimateTime(d, baseStats)
		opt := gpusim.EstimateTime(d, gpusim.SoftmaxCost(d, s.Cfg, gpusim.SoftmaxFusedParallel))
		rows = append(rows, Figure13Row{
			Config:      s.Name,
			BaselineGBs: base.AchievedBandwidthGBs,
			OptGBs:      opt.AchievedBandwidthGBs,
			Speedup:     base.TotalUS / opt.TotalUS,
		})
	}
	t := Table{
		Title:   "Figure 13: softmax achieved bandwidth (GB/s), best baseline library vs the fused+parallel kernel",
		Headers: []string{"batch/classes", "BL_Best GB/s", "Opt GB/s", "Opt speedup"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Config, f1(r.BaselineGBs), f1(r.OptGBs), f2(r.Speedup)})
	}
	return rows, t
}

// SoftmaxAblationRow splits the softmax gains into the fusion contribution
// and the inner-loop-parallelisation contribution (Section VI.B).
type SoftmaxAblationRow struct {
	Config          string
	FusionSpeedup   float64 // fused (still thread-per-image) over the 5-kernel baseline
	ParallelSpeedup float64 // fused+parallel over fused
	TotalSpeedup    float64
}

// SoftmaxAblation regenerates the Section VI.B ablation of the softmax
// optimisations.
func SoftmaxAblation(d *gpusim.Device) ([]SoftmaxAblationRow, Table) {
	var rows []SoftmaxAblationRow
	for _, s := range workloads.SoftmaxSweep() {
		base := gpusim.EstimateTime(d, gpusim.SoftmaxCost(d, s.Cfg, gpusim.SoftmaxThreadPerImage)).TotalUS
		fused := gpusim.EstimateTime(d, gpusim.SoftmaxCost(d, s.Cfg, gpusim.SoftmaxFused)).TotalUS
		full := gpusim.EstimateTime(d, gpusim.SoftmaxCost(d, s.Cfg, gpusim.SoftmaxFusedParallel)).TotalUS
		rows = append(rows, SoftmaxAblationRow{
			Config:          s.Name,
			FusionSpeedup:   base / fused,
			ParallelSpeedup: fused / full,
			TotalSpeedup:    base / full,
		})
	}
	t := Table{
		Title:   "Softmax ablation: kernel fusion vs inner-loop parallelisation (speedups over the 5-kernel thread-per-image baseline)",
		Headers: []string{"batch/classes", "fusion", "+parallel inner loops", "total"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Config, f2(r.FusionSpeedup), f2(r.ParallelSpeedup), f2(r.TotalSpeedup)})
	}
	return rows, t
}

// PoolingAblationRow compares the hill-climbing pick against the exhaustive
// optimum of the coarsening space for one pooling layer.
type PoolingAblationRow struct {
	Layer            string
	TunedExpansion   kernels.PoolExpansion
	TunedUS          float64
	ExhaustiveUS     float64
	TunedProbes      int
	ExhaustiveProbes int
	WithinPct        float64 // how far the tuned pick is from the optimum
}

// PoolingAblation regenerates the auto-tuner ablation: hill climbing versus
// exhaustive search of the working-set expansion factors.
func PoolingAblation(d *gpusim.Device) ([]PoolingAblationRow, Table) {
	var rows []PoolingAblationRow
	for _, p := range workloads.Table1Pools() {
		tuned, res, err := autotune.TunePoolExpansion(p.Cfg, gpusim.PoolCoarsenedTimeUS(d, p.Cfg))
		if err != nil {
			continue
		}
		_, exhaustiveUS, probes, err := autotune.ExhaustivePoolExpansion(p.Cfg, gpusim.PoolCoarsenedTimeUS(d, p.Cfg), 6)
		if err != nil {
			continue
		}
		within := 0.0
		if exhaustiveUS > 0 {
			within = 100 * (res.Best.CostUS - exhaustiveUS) / exhaustiveUS
		}
		rows = append(rows, PoolingAblationRow{
			Layer:            p.Name,
			TunedExpansion:   tuned,
			TunedUS:          res.Best.CostUS,
			ExhaustiveUS:     exhaustiveUS,
			TunedProbes:      len(res.Evaluated),
			ExhaustiveProbes: probes,
			WithinPct:        within,
		})
	}
	t := Table{
		Title:   "Pooling auto-tuner ablation: hill climbing vs exhaustive search of expansion factors",
		Headers: []string{"layer", "tuned", "tuned us", "exhaustive us", "gap %", "probes (hill)", "probes (exhaustive)"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Layer, fmt.Sprintf("%dx%d", r.TunedExpansion.H, r.TunedExpansion.W),
			f1(r.TunedUS), f1(r.ExhaustiveUS), f2(r.WithinPct), fmt.Sprint(r.TunedProbes), fmt.Sprint(r.ExhaustiveProbes),
		})
	}
	return rows, t
}
