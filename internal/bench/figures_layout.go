package bench

import (
	"fmt"

	"memcnn/internal/gpusim"
	"memcnn/internal/layout"
	"memcnn/internal/tensor"
	"memcnn/internal/workloads"
)

// Figure1Row is one bar group of Fig. 1: the execution time of the NCHW
// (cuDNN) implementation normalised to the CHWN (cuda-convnet2) one for an
// AlexNet layer.
type Figure1Row struct {
	Layer          string
	CHWNTimeUS     float64
	NCHWTimeUS     float64
	NCHWNormalized float64 // NCHW time / CHWN time (the bar of Fig. 1)
}

// Figure1 regenerates Fig. 1: the motivating comparison of the two layouts on
// AlexNet's convolutional and pooling layers.
func Figure1(d *gpusim.Device) ([]Figure1Row, Table) {
	var rows []Figure1Row
	for _, c := range workloads.AlexNetFig1Convs() {
		_, chwn, nchw := layout.MeasuredConvWinner(d, c.Cfg)
		rows = append(rows, Figure1Row{Layer: "CV" + c.Name[2:], CHWNTimeUS: chwn, NCHWTimeUS: nchw, NCHWNormalized: nchw / chwn})
	}
	for _, p := range workloads.AlexNetFig1Pools() {
		chwn := gpusim.EstimateTime(d, gpusim.PoolCHWNCost(d, p.Cfg)).TotalUS
		nchw := gpusim.EstimateTime(d, gpusim.PoolNCHWCost(d, p.Cfg, gpusim.PoolCuDNN)).TotalUS
		rows = append(rows, Figure1Row{Layer: "PL" + p.Name[2:], CHWNTimeUS: chwn, NCHWTimeUS: nchw, NCHWNormalized: nchw / chwn})
	}
	t := Table{
		Title:   "Figure 1: NCHW (cuDNN) execution time normalised to CHWN (cuda-convnet2), AlexNet layers",
		Headers: []string{"layer", "CHWN us", "NCHW us", "NCHW/CHWN"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Layer, f1(r.CHWNTimeUS), f1(r.NCHWTimeUS), f2(r.NCHWNormalized)})
	}
	return rows, t
}

// Figure3Row is one layer of Fig. 3: cuDNN's speedup over cuda-convnet (the
// cuda-convnet bar is 1 by construction).
type Figure3Row struct {
	Layer        string
	CHWNTimeUS   float64
	NCHWTimeUS   float64
	CuDNNSpeedup float64 // >1 means cuDNN (NCHW) wins
	CHWNWins     bool
}

// Figure3 regenerates Fig. 3: the layout comparison over the twelve Table 1
// convolutional layers.
func Figure3(d *gpusim.Device) ([]Figure3Row, Table) {
	var rows []Figure3Row
	for _, c := range workloads.Table1Convs() {
		_, chwn, nchw := layout.MeasuredConvWinner(d, c.Cfg)
		rows = append(rows, Figure3Row{
			Layer:        c.Name,
			CHWNTimeUS:   chwn,
			NCHWTimeUS:   nchw,
			CuDNNSpeedup: chwn / nchw,
			CHWNWins:     chwn <= nchw,
		})
	}
	t := Table{
		Title:   "Figure 3: cuDNN (NCHW) speedup over cuda-convnet (CHWN), Table 1 convolutional layers",
		Headers: []string{"layer", "cuda-convnet us", "cuDNN us", "cuDNN speedup", "winner"},
	}
	for _, r := range rows {
		winner := "NCHW"
		if r.CHWNWins {
			winner = "CHWN"
		}
		t.Rows = append(t.Rows, []string{r.Layer, f1(r.CHWNTimeUS), f1(r.NCHWTimeUS), f2(r.CuDNNSpeedup), winner})
	}
	return rows, t
}

// Figure4Row is one point of the Fig. 4 sensitivity sweeps.
type Figure4Row = layout.SweepPoint

// Figure4N regenerates Fig. 4a: throughput of both layouts as the batch size
// varies on the CONV7 shape.
func Figure4N(d *gpusim.Device) ([]Figure4Row, Table) {
	pts := layout.SweepN(d, []int{1, 3, 16, 32, 64, 128, 256, 384, 512})
	t := Table{
		Title:   "Figure 4a: GFLOPS vs batch size N (CONV7 shape, C=256)",
		Headers: []string{"N", "cuda-convnet GFLOPS", "cuDNN GFLOPS", "winner"},
	}
	for _, p := range pts {
		winner := "NCHW"
		if p.CHWNPrefers {
			winner = "CHWN"
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(p.Value), f0(p.CHWNGflops), f0(p.NCHWGflops), winner})
	}
	return pts, t
}

// Figure4C regenerates Fig. 4b: throughput of both layouts as the channel
// count varies on the CONV7 shape.
func Figure4C(d *gpusim.Device) ([]Figure4Row, Table) {
	pts := layout.SweepC(d, []int{16, 32, 64, 128, 256})
	t := Table{
		Title:   "Figure 4b: GFLOPS vs input channels C (CONV7 shape, N=64)",
		Headers: []string{"C", "cuda-convnet GFLOPS", "cuDNN GFLOPS", "winner"},
	}
	for _, p := range pts {
		winner := "NCHW"
		if p.CHWNPrefers {
			winner = "CHWN"
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(p.Value), f0(p.CHWNGflops), f0(p.NCHWGflops), winner})
	}
	return pts, t
}

// Figure5Row is one layer of Fig. 5: the speedups of the cuDNN modes over
// cuda-convnet; OOM marks an execution failure of an FFT mode.
type Figure5Row struct {
	Layer          string
	MMSpeedup      float64
	FFTSpeedup     float64
	FFTTileSpeedup float64
	FFTOOM         bool
	FFTTileOOM     bool
}

// Figure5 regenerates Fig. 5: FFT-based convolution versus matrix
// multiplication and the CHWN direct convolution.
func Figure5(d *gpusim.Device) ([]Figure5Row, Table) {
	var rows []Figure5Row
	for _, c := range workloads.Table1Convs() {
		base := gpusim.EstimateTime(d, gpusim.ConvDirectCHWNCost(d, c.Cfg)).TotalUS
		mm := gpusim.EstimateSequence(d, gpusim.ConvGemmNCHWCost(d, c.Cfg))
		row := Figure5Row{Layer: c.Name, MMSpeedup: base / mm}
		if seq, err := gpusim.ConvFFTCost(d, c.Cfg); err == nil {
			row.FFTSpeedup = base / gpusim.EstimateSequence(d, seq)
		} else {
			row.FFTOOM = true
		}
		if seq, err := gpusim.ConvFFTTilingCost(d, c.Cfg); err == nil {
			row.FFTTileSpeedup = base / gpusim.EstimateSequence(d, seq)
		} else {
			row.FFTTileOOM = true
		}
		rows = append(rows, row)
	}
	t := Table{
		Title:   "Figure 5: speedups over cuda-convnet for the NCHW convolution modes (OOM = exceeds device memory)",
		Headers: []string{"layer", "cuDNN-MM", "cuDNN-FFT", "cuDNN-FFT-T"},
	}
	for _, r := range rows {
		fft := f2(r.FFTSpeedup)
		if r.FFTOOM {
			fft = "OOM"
		}
		fftT := f2(r.FFTTileSpeedup)
		if r.FFTTileOOM {
			fftT = "OOM"
		}
		t.Rows = append(t.Rows, []string{r.Layer, f2(r.MMSpeedup), fft, fftT})
	}
	return rows, t
}

// Figure10Row is one layer of Fig. 10: the speedup of the preferred layout
// over the alternative, without transformation overhead, with the naive
// transformation and with the optimised transformation.
type Figure10Row struct {
	Layer            string
	Preferred        tensor.Layout
	OptSpeedup       float64
	NaiveTransSpeed  float64
	OptTransSpeedup  float64
	TransformShapeGB float64
}

// Figure10 regenerates Fig. 10: how much of the layout benefit survives the
// data-layout transformation overhead.
func Figure10(d *gpusim.Device) ([]Figure10Row, Table) {
	var rows []Figure10Row
	for _, c := range workloads.Table1Convs() {
		_, chwn, nchw := layout.MeasuredConvWinner(d, c.Cfg)
		preferredUS, alternativeUS := chwn, nchw
		preferred, alternative := tensor.CHWN, tensor.NCHW
		if nchw < chwn {
			preferredUS, alternativeUS = nchw, chwn
			preferred, alternative = tensor.NCHW, tensor.CHWN
		}
		// The transformation converts the layer's input into the preferred
		// layout and its output back to the alternative layout (the rest of
		// the network stays in the alternative layout, the worst case the
		// paper prices in Fig. 10).
		inShape, outShape := c.Cfg.InputShape(), c.Cfg.OutputShape()
		naive := transformPairUS(d, inShape, outShape, alternative, preferred, gpusim.TransformNaive)
		opt := optimizedTransformPairUS(d, inShape, outShape, alternative, preferred)

		rows = append(rows, Figure10Row{
			Layer:            c.Name,
			Preferred:        preferred,
			OptSpeedup:       alternativeUS / preferredUS,
			NaiveTransSpeed:  alternativeUS / (preferredUS + naive),
			OptTransSpeedup:  alternativeUS / (preferredUS + opt),
			TransformShapeGB: float64(inShape.Bytes()+outShape.Bytes()) / 1e9,
		})
	}
	t := Table{
		Title:   "Figure 10: speedup of the preferred layout, alone and including transformation overhead",
		Headers: []string{"layer", "preferred", "Opt", "Opt+naive transform", "Opt+optimized transform"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Layer, r.Preferred.String(), f2(r.OptSpeedup), f2(r.NaiveTransSpeed), f2(r.OptTransSpeedup)})
	}
	return rows, t
}

func transformPairUS(d *gpusim.Device, in, out tensor.Shape, from, to tensor.Layout, m gpusim.TransformMethod) float64 {
	total := 0.0
	if s, err := gpusim.TransformCost(d, in, from, to, m); err == nil {
		total += gpusim.EstimateTime(d, s).TotalUS
	}
	if s, err := gpusim.TransformCost(d, out, to, from, m); err == nil {
		total += gpusim.EstimateTime(d, s).TotalUS
	}
	return total
}

func optimizedTransformPairUS(d *gpusim.Device, in, out tensor.Shape, from, to tensor.Layout) float64 {
	total := 0.0
	if s, _, err := gpusim.BestTransform(d, in, from, to); err == nil {
		total += gpusim.EstimateTime(d, s).TotalUS
	}
	if s, _, err := gpusim.BestTransform(d, out, to, from); err == nil {
		total += gpusim.EstimateTime(d, s).TotalUS
	}
	return total
}

// Figure11Row is one layer of Fig. 11: the bandwidth achieved by the three
// transformation kernels on the layer's input tensor.
type Figure11Row struct {
	Layer        string
	NaiveGBs     float64
	TiledGBs     float64
	VecGBs       float64
	VecApplic    bool
	NaiveSpeedup float64 // tiled over naive
	VecSpeedup   float64 // vectorised over naive (0 when not applicable)
}

// Figure11 regenerates Fig. 11: naive vs Opt1 (tiled) vs Opt2 (vectorised)
// layout transformation bandwidth.
func Figure11(d *gpusim.Device) ([]Figure11Row, Table) {
	var rows []Figure11Row
	for _, c := range workloads.Table1Convs() {
		shape := c.Cfg.InputShape()
		row := Figure11Row{Layer: c.Name}
		naive, err := gpusim.TransformCost(d, shape, tensor.CHWN, tensor.NCHW, gpusim.TransformNaive)
		if err != nil {
			continue
		}
		naiveT := gpusim.EstimateTime(d, naive)
		row.NaiveGBs = naiveT.AchievedBandwidthGBs

		tiled, err := gpusim.TransformCost(d, shape, tensor.CHWN, tensor.NCHW, gpusim.TransformTiled)
		if err != nil {
			continue
		}
		tiledT := gpusim.EstimateTime(d, tiled)
		row.TiledGBs = tiledT.AchievedBandwidthGBs
		row.NaiveSpeedup = naiveT.TotalUS / tiledT.TotalUS

		if gpusim.TransformApplicable(gpusim.TransformVectorized, shape) {
			vec, err := gpusim.TransformCost(d, shape, tensor.CHWN, tensor.NCHW, gpusim.TransformVectorized)
			if err == nil {
				vecT := gpusim.EstimateTime(d, vec)
				row.VecGBs = vecT.AchievedBandwidthGBs
				row.VecApplic = true
				row.VecSpeedup = naiveT.TotalUS / vecT.TotalUS
			}
		}
		rows = append(rows, row)
	}
	t := Table{
		Title:   "Figure 11: layout transformation bandwidth (GB/s), CHWN -> NCHW on each layer's input",
		Headers: []string{"layer", "naive", "Opt1 (tiled)", "Opt2 (vectorized)", "Opt1 speedup", "Opt2 speedup"},
		Notes:   []string{"Opt2 requires N >= 64 (float2 vectorisation packs image pairs)"},
	}
	for _, r := range rows {
		vec, vecSp := "n/a", "n/a"
		if r.VecApplic {
			vec, vecSp = f1(r.VecGBs), f2(r.VecSpeedup)
		}
		t.Rows = append(t.Rows, []string{r.Layer, f1(r.NaiveGBs), f1(r.TiledGBs), vec, f2(r.NaiveSpeedup), vecSp})
	}
	return rows, t
}

// HeuristicRow is one layer of the heuristic-accuracy check (Section VI.A).
type HeuristicRow struct {
	Layer     string
	Heuristic tensor.Layout
	Oracle    tensor.Layout
	Agree     bool
}

// HeuristicAccuracy compares the (Ct, Nt) heuristic against the cost-model
// oracle for every Table 1 convolutional layer.
func HeuristicAccuracy(d *gpusim.Device, th layout.Thresholds) ([]HeuristicRow, Table) {
	var rows []HeuristicRow
	agree := 0
	for _, c := range workloads.Table1Convs() {
		h := layout.PreferredConvLayout(c.Cfg, th)
		o, _, _ := layout.MeasuredConvWinner(d, c.Cfg)
		r := HeuristicRow{Layer: c.Name, Heuristic: h, Oracle: o, Agree: h == o}
		if r.Agree {
			agree++
		}
		rows = append(rows, r)
	}
	t := Table{
		Title:   fmt.Sprintf("Heuristic accuracy with thresholds %v: %d/%d layers classified like the measured winner", th, agree, len(rows)),
		Headers: []string{"layer", "heuristic", "oracle", "agree"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Layer, r.Heuristic.String(), r.Oracle.String(), fmt.Sprint(r.Agree)})
	}
	return rows, t
}
