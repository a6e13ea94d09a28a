// Command netbench runs the whole-network comparison of the paper (Fig. 14)
// and, optionally, the per-layer breakdown of a single network under every
// library policy (the Fig. 15 view for AlexNet).
//
// The -runtime flag switches to the planned-execution view: every network is
// compiled through internal/runtime — with joint per-layer (layout,
// convolution algorithm) selection over direct, im2col+GEMM and FFT unless
// -select=false — and its static memory plan plus the chosen layout and
// algorithm per convolution layer is reported;
// -exec additionally executes the compiled programs functionally on the CPU
// and compares naive, direct-only and algorithm-selected throughput.  -json
// writes the per-network results as machine-readable records (the BENCH_*.json
// perf-trajectory format).
//
// The -devices flag (with -runtime) additionally shards each compiled
// program across N simulated devices and reports the per-stage breakdown:
// op counts, arena bytes, cross-device transfer bytes and modeled device
// latency — plus measured per-stage wall time when -exec runs the pipeline.
//
// The -replicas flag (with -runtime) replicates each compiled program across
// N devices (-replica-devices picks the hardware mix) and reports the
// throughput-weighted per-replica batch shares and the modeled speedup over
// one device; with -exec it also measures the replicated full-batch latency
// against the single executor and drives a duplicated-traffic burst through
// the cached batching server, recording cache hit/miss counters — all of it
// lands in the JSON records.
//
// Usage:
//
//	netbench                         # Fig. 14 on the Titan Black model
//	netbench -network AlexNet -detail
//	netbench -device titanx -thresholds calibrated
//	netbench -runtime                # memory plans + conv algorithms
//	netbench -runtime -exec          # plus measured throughput (small nets)
//	netbench -runtime -devices 4     # pipeline-sharded per-stage breakdown
//	netbench -runtime -replicas 4 -replica-devices titanblack,titanx -exec
//	netbench -runtime -exec -json BENCH_runtime.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	goruntime "runtime"
	"strings"
	"sync"
	"time"

	"math"

	"memcnn/internal/bench"
	"memcnn/internal/frameworks"
	"memcnn/internal/gpusim"
	"memcnn/internal/kernels"
	"memcnn/internal/layers"
	"memcnn/internal/layout"
	"memcnn/internal/network"
	"memcnn/internal/obs"
	memruntime "memcnn/internal/runtime"
	"memcnn/internal/runtime/replica"
	"memcnn/internal/runtime/train"
	"memcnn/internal/tensor"
	"memcnn/internal/workloads"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("netbench", flag.ContinueOnError)
	var (
		networkName = fs.String("network", "all", "network to price: LeNet, Cifar10, AlexNet, ZFNet, VGG or 'all'")
		deviceName  = fs.String("device", "titanblack", "GPU model: titanblack or titanx")
		thresholds  = fs.String("thresholds", "paper", "layout thresholds: 'paper' or 'calibrated'")
		detail      = fs.Bool("detail", false, "print the per-layer breakdown for each planner")
		runtimeView = fs.Bool("runtime", false, "compile each network with internal/runtime and report its static memory plan")
		execute     = fs.Bool("exec", false, "with -runtime: execute the compiled programs and measure imgs/sec (small networks only unless -network selects one)")
		selectAlgs  = fs.Bool("select", true, "with -runtime: select the convolution layout and algorithm per layer (direct, im2col+GEMM or FFT)")
		probe       = fs.Bool("probe", false, "with -runtime -select: pick each conv algorithm by timing every production kernel instead of the analytic heuristic")
		devices     = fs.Int("devices", 1, "with -runtime: shard each program across N simulated devices and report the per-stage breakdown")
		replicas    = fs.Int("replicas", 1, "with -runtime: replicate each program across N devices and report the throughput-weighted batch split")
		replicaDevs = fs.String("replica-devices", "", "with -replicas: comma-separated replica hardware (titanblack, titanx or cpu), cycled; default titanblack")
		chaosSeed   = fs.Uint64("chaos", 0, "with -replicas and -exec: soak the replica group under a seeded fault schedule (one replica dies permanently) and record the failover counters (0 = no chaos)")
		trainMode   = fs.Bool("train", false, "compile each network for training (forward+loss+backward+SGD) and report the planned footprint with and without recompute checkpointing; with -exec also run sanity training steps on the cheap networks (implies -runtime)")
		jsonPath    = fs.String("json", "", "with -runtime: write per-network latency/alloc stats to this file as JSON")
		tracePath   = fs.String("trace", "", "with -runtime -exec: write a Chrome trace (chrome://tracing / Perfetto) of the quantile runs to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trainMode {
		*runtimeView = true
	}

	dev := gpusim.TitanBlack()
	if strings.EqualFold(*deviceName, "titanx") {
		dev = gpusim.TitanX()
	}
	th := layout.TitanBlackThresholds()
	if strings.Contains(dev.Name, "Titan X") {
		th = layout.TitanXThresholds()
	}
	if strings.EqualFold(*thresholds, "calibrated") {
		th = layout.Calibrate(dev)
	}
	fmt.Fprintf(stdout, "device: %s\nlayout thresholds: %v\n\n", dev.Name, th)

	if *runtimeView {
		opts := memruntime.Options{ConvAlgorithms: *selectAlgs, Probe: *probe}
		rc := replicaConfig{count: *replicas, spec: *replicaDevs, chaosSeed: *chaosSeed}
		return runtimeReport(stdout, dev, th, *networkName, *execute, opts, *devices, rc, *trainMode, *jsonPath, *tracePath)
	}

	if strings.EqualFold(*networkName, "all") {
		_, table, err := bench.Figure14(dev, th)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, table)
		if !*detail {
			return nil
		}
	}

	nets, err := workloads.Networks()
	if err != nil {
		return err
	}
	targets := workloads.NetworkOrder
	if !strings.EqualFold(*networkName, "all") {
		net, ok := nets[*networkName]
		if !ok {
			return fmt.Errorf("netbench: unknown network %q", *networkName)
		}
		targets = []string{net.Name}
	}

	for _, name := range targets {
		net := nets[name]
		fmt.Fprintf(stdout, "== %s (batch %d, %d layers) ==\n", net.Name, net.Batch, len(net.Layers))
		for _, planner := range frameworks.All(th) {
			plan, err := planner.Plan(dev, net)
			if err != nil {
				return fmt.Errorf("netbench: %s on %s: %w", planner.Name(), name, err)
			}
			est, err := plan.Estimate()
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%-14s %10.0f us  (%d layout transforms, %.0f us in transforms)\n",
				planner.Name(), est.TotalUS, plan.TransformCount(), est.TransformUS)
			if *detail {
				for _, lt := range est.PerLayer {
					fmt.Fprintf(stdout, "    %-12s %-5s %10.1f us", lt.Name, lt.Layout, lt.TimeUS)
					if lt.TransformUS > 0 {
						fmt.Fprintf(stdout, "  (+%.1f us transform)", lt.TransformUS)
					}
					fmt.Fprintln(stdout)
				}
			}
		}
		fmt.Fprintln(stdout)
	}
	return nil
}

// convChoiceJSON is the machine-readable record of one conv op's joint
// (layout, algorithm) choice.
type convChoiceJSON struct {
	Layer          string `json:"layer"`
	Algorithm      string `json:"algorithm"`
	Layout         string `json:"layout"`
	WorkspaceBytes int64  `json:"workspace_bytes,omitempty"`
}

// stageJSON is the machine-readable record of one pipeline stage under
// -devices.
type stageJSON struct {
	Stage           int     `json:"stage"`
	Device          string  `json:"device"`
	Ops             int     `json:"ops"`
	ArenaBytes      int64   `json:"arena_bytes"`
	TransferInBytes int64   `json:"transfer_in_bytes"`
	ModeledUS       float64 `json:"modeled_us"`
	MeasuredUS      float64 `json:"measured_us,omitempty"`
}

// replicaJSON is the machine-readable record of one replica under -replicas.
type replicaJSON struct {
	Replica    int     `json:"replica"`
	Devices    string  `json:"devices"`
	Weight     float64 `json:"weight"`
	Share      int     `json:"share"`
	ScatterUS  float64 `json:"scatter_us,omitempty"`
	ModeledUS  float64 `json:"modeled_us,omitempty"`
	MeasuredUS float64 `json:"measured_us,omitempty"`
}

// netReport is the machine-readable per-network record written by -json; it
// is the seed of the BENCH_*.json perf trajectory.
type netReport struct {
	Network        string           `json:"network"`
	Batch          int              `json:"batch"`
	Planner        string           `json:"planner"`
	Ops            int              `json:"ops"`
	Buffers        int              `json:"buffers"`
	PeakBytes      int64            `json:"peak_bytes"`
	NaiveBytes     int64            `json:"naive_bytes"`
	ScratchBytes   int64            `json:"scratch_bytes"`
	SavedFraction  float64          `json:"saved_fraction"`
	ConvAlgorithms []convChoiceJSON `json:"conv_algorithms,omitempty"`
	// FFTLayers counts the convolution layers the joint sweep placed on the
	// frequency-domain path; benchtrend gates it against silent regressions.
	FFTLayers int `json:"fft_layers,omitempty"`

	// Sharding stats, present with -devices > 1.
	Devices         int         `json:"devices,omitempty"`
	SummedPeakBytes int64       `json:"summed_peak_bytes,omitempty"`
	TransferBytes   int64       `json:"transfer_bytes,omitempty"`
	Stages          []stageJSON `json:"stages,omitempty"`
	PipelinedUS     float64     `json:"pipelined_us,omitempty"`

	// Replication stats, present with -replicas > 1: the throughput-weighted
	// per-replica batch shares, the modeled full-batch latency through the
	// group (slowest replica, contended scatter included) against the
	// single-device modeled latency, and — with -exec — the measured
	// replicated latency, the measured speedup over the single executor and
	// the result-cache counters from a short duplicated-traffic serving
	// burst.
	Replicas               int           `json:"replicas,omitempty"`
	ReplicaRecords         []replicaJSON `json:"replica_shares,omitempty"`
	ReplicatedModeledUS    float64       `json:"replicated_modeled_us,omitempty"`
	SingleModeledUS        float64       `json:"single_modeled_us,omitempty"`
	ModeledReplicaSpeedup  float64       `json:"modeled_replica_speedup,omitempty"`
	ReplicatedUS           float64       `json:"replicated_us,omitempty"`
	MeasuredReplicaSpeedup float64       `json:"measured_replica_speedup,omitempty"`
	CacheHits              uint64        `json:"cache_hits,omitempty"`
	CacheMisses            uint64        `json:"cache_misses,omitempty"`
	CacheEvictions         uint64        `json:"cache_evictions,omitempty"`

	// Robustness counters from the serving burst.  In the un-faulted CI
	// baseline every one of these must be zero (omitted); benchtrend fails
	// the gate when a current run reports sheds or failovers without fault
	// injection.
	ServeShed      uint64 `json:"serve_shed,omitempty"`
	ServeExpired   uint64 `json:"serve_expired,omitempty"`
	ServeRetries   uint64 `json:"serve_retries,omitempty"`
	ServeFailovers uint64 `json:"serve_failovers,omitempty"`

	// Chaos soak record, present with -chaos: 200 batches served while every
	// replica device runs a seeded fault schedule and one replica dies
	// permanently.  Mismatches counts batches whose output was not
	// bit-identical to the single-device golden — it must be zero.
	ChaosSeed         uint64 `json:"chaos_seed,omitempty"`
	ChaosBatches      int    `json:"chaos_batches,omitempty"`
	ChaosMismatches   int    `json:"chaos_mismatches,omitempty"`
	ChaosRetries      uint64 `json:"chaos_retries,omitempty"`
	ChaosFailovers    uint64 `json:"chaos_failovers,omitempty"`
	ChaosReadmissions uint64 `json:"chaos_readmissions,omitempty"`
	ChaosUnhealthy    int    `json:"chaos_unhealthy,omitempty"`

	// Training stats, present with -train: the op count, planned arena peak
	// (under the auto recompute-vs-store policy — the footprint the trend gate
	// guards), the store-all planned peak, the keep-everything naive bytes,
	// the recompute op count the checkpointer traded in, the modeled step
	// latency on the selected hardware, and — with -exec — the measured
	// planned and naive step latencies plus the last loss of the sanity curve.
	TrainOps            int     `json:"train_ops,omitempty"`
	TrainPeakBytes      int64   `json:"train_peak_bytes,omitempty"`
	TrainStorePeakBytes int64   `json:"train_store_peak_bytes,omitempty"`
	TrainCkptPeakBytes  int64   `json:"train_ckpt_peak_bytes,omitempty"`
	TrainNaiveBytes     int64   `json:"train_naive_bytes,omitempty"`
	TrainRecomputeOps   int     `json:"train_recompute_ops,omitempty"`
	TrainModeledUS      float64 `json:"train_modeled_us,omitempty"`
	TrainUS             float64 `json:"train_us,omitempty"`
	TrainNaiveUS        float64 `json:"train_naive_us,omitempty"`
	TrainLoss           float64 `json:"train_loss,omitempty"`

	// Execution stats, present with -exec.  SelectedUS is the min over
	// samples (the trend-gated mean-path metric); P50US/P99US come from a
	// latency histogram over repeated selected-program runs and gate the
	// tail, which a min-only metric cannot see.
	NaiveUS            float64 `json:"naive_us,omitempty"`
	DirectUS           float64 `json:"direct_us,omitempty"`
	SelectedUS         float64 `json:"selected_us,omitempty"`
	P50US              float64 `json:"p50_us,omitempty"`
	P99US              float64 `json:"p99_us,omitempty"`
	SelectedImgsPerSec float64 `json:"selected_imgs_per_sec,omitempty"`
	SelectedAllocBytes uint64  `json:"selected_alloc_bytes,omitempty"`
}

// runtimeReport compiles every selected network through the planned-execution
// engine and prints its op count, static memory plan and the convolution
// algorithm chosen per layer; with exec it also measures functional
// throughput of the naive forward, the direct-only program and the
// algorithm-selected program.  By default execution covers only the
// sub-second networks (LeNet, Cifar10); selecting a single network with
// -network overrides that guard.  A non-empty jsonPath collects the reports
// into a JSON file.
// replicaConfig carries the -replicas/-replica-devices/-chaos flags.
type replicaConfig struct {
	count     int
	spec      string
	chaosSeed uint64
}

func runtimeReport(stdout io.Writer, dev *gpusim.Device, th layout.Thresholds, networkName string, exec bool, opts memruntime.Options, devices int, rc replicaConfig, trainMode bool, jsonPath, tracePath string) error {
	nets, err := workloads.Networks()
	if err != nil {
		return err
	}
	targets := workloads.NetworkOrder
	if !strings.EqualFold(networkName, "all") {
		net, ok := nets[networkName]
		if !ok {
			return fmt.Errorf("netbench: unknown network %q", networkName)
		}
		targets = []string{net.Name}
	}
	planner := frameworks.Optimized(th)
	cheap := map[string]bool{"LeNet": true, "Cifar10": true}

	// One recorder is shared across every network's quantile runs so the
	// resulting Chrome trace shows them back to back on the engine lane.
	var traceRec *obs.Recorder
	if tracePath != "" {
		traceRec = obs.NewRecorder(0)
	}

	var reports []netReport
	fmt.Fprintf(stdout, "%-8s %9s %8s %12s %12s %7s\n", "network", "ops", "buffers", "peak", "naive", "saved")
	for _, name := range targets {
		net := nets[name]
		plan, err := planner.Plan(dev, net)
		if err != nil {
			return fmt.Errorf("netbench: planning %s: %w", name, err)
		}
		prog, err := memruntime.CompileWithOptions(plan, opts)
		if err != nil {
			return fmt.Errorf("netbench: compiling %s: %w", name, err)
		}
		fmt.Fprintf(stdout, "%-8s %9d %8d %9.2f MiB %9.2f MiB %6.0f%%\n",
			name, len(prog.Ops), len(prog.Buffers),
			float64(prog.Mem.PeakBytes())/(1<<20), float64(prog.NaiveBytes())/(1<<20),
			100*prog.Savings())
		rep := netReport{
			Network: name, Batch: net.Batch, Planner: plan.PlannerName,
			Ops: len(prog.Ops), Buffers: len(prog.Buffers),
			PeakBytes: prog.Mem.PeakBytes(), NaiveBytes: prog.NaiveBytes(),
			ScratchBytes: prog.ScratchBytes(), SavedFraction: prog.Savings(),
		}
		for _, ch := range prog.ConvChoices() {
			rep.ConvAlgorithms = append(rep.ConvAlgorithms, convChoiceJSON{
				Layer: ch.Layer, Algorithm: ch.Alg.String(), Layout: ch.Layout.String(),
				WorkspaceBytes: ch.WorkspaceBytes,
			})
			if ch.Alg == kernels.ConvAlgFFT {
				rep.FFTLayers++
			}
			if opts.ConvAlgorithms {
				line := fmt.Sprintf("         conv %-12s %-5s %s", ch.Layer, ch.Layout, ch.Alg)
				if ch.WorkspaceBytes > 0 {
					line += fmt.Sprintf(" (workspace %.2f MiB)", float64(ch.WorkspaceBytes)/(1<<20))
				}
				fmt.Fprintln(stdout, line)
			}
		}
		if exec && (cheap[name] || len(targets) == 1) {
			direct := prog // without selection the program already is direct-only
			if opts.ConvAlgorithms {
				direct, err = memruntime.CompileWithOptions(plan, memruntime.Options{})
				if err != nil {
					return fmt.Errorf("netbench: compiling %s direct-only: %w", name, err)
				}
			}
			if err := timeExecution(stdout, net, direct, prog, traceRec, &rep); err != nil {
				return err
			}
		}
		if devices > 1 {
			if err := shardReport(stdout, dev, prog, devices, exec && (cheap[name] || len(targets) == 1), &rep); err != nil {
				return fmt.Errorf("netbench: sharding %s: %w", name, err)
			}
		}
		if rc.count > 1 {
			execHere := exec && (cheap[name] || len(targets) == 1)
			if err := replicaReport(stdout, prog, rc, execHere, &rep); err != nil {
				return fmt.Errorf("netbench: replicating %s: %w", name, err)
			}
			if rc.chaosSeed != 0 && execHere {
				if err := chaosSoak(stdout, prog, rc, &rep); err != nil {
					return fmt.Errorf("netbench: chaos soak on %s: %w", name, err)
				}
			}
		}
		if trainMode {
			// Training steps run the direct backward kernels on the CPU, so
			// measured execution defaults to LeNet only; selecting a single
			// network opts in explicitly.
			execTrain := exec && (name == "LeNet" || len(targets) == 1)
			if err := trainNetReport(stdout, dev, nets[name], execTrain, &rep); err != nil {
				return fmt.Errorf("netbench: training %s: %w", name, err)
			}
		}
		reports = append(reports, rep)
	}
	if trainMode {
		printTrainTable(stdout, reports)
		_, table := bench.TrainingStep(dev)
		fmt.Fprintln(stdout, table)
	}
	if traceRec != nil {
		f, err := os.Create(tracePath)
		if err != nil {
			return fmt.Errorf("netbench: writing %s: %w", tracePath, err)
		}
		if err := traceRec.WriteChromeTrace(f, 0); err != nil {
			f.Close()
			return fmt.Errorf("netbench: writing %s: %w", tracePath, err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("netbench: writing %s: %w", tracePath, err)
		}
		fmt.Fprintf(stdout, "wrote %d trace span(s) to %s\n", traceRec.Len(), tracePath)
	}
	if jsonPath != "" {
		data, err := json.MarshalIndent(reports, "", "  ")
		if err != nil {
			return fmt.Errorf("netbench: encoding json: %w", err)
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("netbench: writing %s: %w", jsonPath, err)
		}
		fmt.Fprintf(stdout, "wrote %d network report(s) to %s\n", len(reports), jsonPath)
	}
	return nil
}

// shardReport cuts the compiled program into n pipeline stages over simulated
// devices of the selected hardware model and prints the per-stage breakdown —
// op counts, arena and transfer bytes, modeled device latency — plus, with
// exec, the measured wall time per stage and for one pipelined batch.
func shardReport(stdout io.Writer, hw *gpusim.Device, prog *memruntime.Program, n int, exec bool, rep *netReport) error {
	sp, err := memruntime.Shard(prog, n, memruntime.ShardOptions{
		Devices:   memruntime.SimDevices(n, hw),
		CostModel: hw,
	})
	if err != nil {
		return err
	}
	rep.Devices = len(sp.Stages)
	rep.SummedPeakBytes = sp.SummedPeakBytes()
	rep.TransferBytes = sp.TransferBytes()
	fmt.Fprintf(stdout, "         sharded across %d device(s): summed arena %.2f MiB vs %.2f MiB single-device, %.2f MiB transfers/batch\n",
		len(sp.Stages), float64(sp.SummedPeakBytes())/(1<<20), float64(prog.Mem.PeakBytes())/(1<<20),
		float64(sp.TransferBytes())/(1<<20))

	// Per-stage steady-state wall time: the cold first batch pays the arena
	// and boundary-pool allocations, so it is measured but excluded from the
	// reported means.
	var warm, final []memruntime.PipelineStageStats
	if exec {
		pe := memruntime.NewPipelineExecutor(sp)
		defer pe.Close()
		in := tensor.Random(prog.InputShape(), tensor.NCHW, 1)
		out := tensor.New(prog.OutputShape(), tensor.NCHW)
		if err := pe.RunInto(in, out); err != nil { // cold batch: warm the stage arenas
			return err
		}
		warm = pe.StageStats()
		pipelined, _, err := minOverSamples(func() (time.Duration, uint64, error) {
			start := time.Now()
			err := pe.RunInto(in, out)
			return time.Since(start), 0, err
		})
		if err != nil {
			return err
		}
		rep.PipelinedUS = float64(pipelined.Microseconds())
		final = pe.StageStats()
	}
	for i, st := range sp.Stages {
		sd := st.Device.(*memruntime.SimDevice)
		modeled := sd.ModelProgramUS(st.Prog) + sd.TransferInUS(st.TransferInBytes)
		sj := stageJSON{
			Stage: st.Index, Device: st.Device.Name(), Ops: st.Ops(),
			ArenaBytes: st.Prog.Mem.PeakBytes(), TransferInBytes: st.TransferInBytes,
			ModeledUS: modeled,
		}
		line := fmt.Sprintf("           stage %d: %2d ops, arena %8.2f MiB, transfer %7.2f MiB, modeled %8.0f us",
			st.Index, st.Ops(), float64(sj.ArenaBytes)/(1<<20), float64(st.TransferInBytes)/(1<<20), modeled)
		if final != nil {
			sj.MeasuredUS = final[i].Delta(warm[i]).MeasuredUS
			line += fmt.Sprintf(", measured %8.0f us", sj.MeasuredUS)
		}
		fmt.Fprintln(stdout, line)
		rep.Stages = append(rep.Stages, sj)
	}
	if exec {
		fmt.Fprintf(stdout, "           pipelined batch: %.0f us measured end-to-end\n", rep.PipelinedUS)
	}
	return nil
}

// replicaReport replicates the compiled program across the configured device
// fleet and prints the throughput-weighted batch split and the modeled
// speedup over one device; with exec it also measures the replicated
// full-batch latency against the single executor and drives a short
// duplicated-traffic serving burst through the cached batching server so the
// JSON record carries cache hit/miss counters.
func replicaReport(stdout io.Writer, prog *memruntime.Program, rc replicaConfig, exec bool, rep *netReport) error {
	fleet, err := replica.ParseDevices(rc.spec, rc.count, 1)
	if err != nil {
		return err
	}
	g, err := replica.NewGroup(prog, rc.count, replica.Config{Devices: fleet})
	if err != nil {
		return err
	}
	defer g.Close()

	rep.Replicas = g.Replicas()
	rep.ReplicatedModeledUS = g.ModeledBatchUS()
	if sd := memruntime.SimOf(fleet[0][0]); sd != nil {
		rep.SingleModeledUS = sd.ModelProgramUS(prog)
		if rep.ReplicatedModeledUS > 0 {
			rep.ModeledReplicaSpeedup = rep.SingleModeledUS / rep.ReplicatedModeledUS
		}
	}
	line := fmt.Sprintf("         replicated across %d device(s)", g.Replicas())
	if rep.ModeledReplicaSpeedup > 0 {
		line += fmt.Sprintf(": modeled %.0f us/batch vs %.0f us single-device (%.2fx)",
			rep.ReplicatedModeledUS, rep.SingleModeledUS, rep.ModeledReplicaSpeedup)
	}
	fmt.Fprintln(stdout, line)

	if exec {
		in := tensor.Random(prog.InputShape(), tensor.NCHW, 1)
		out := tensor.New(prog.OutputShape(), tensor.NCHW)
		single := memruntime.NewExecutor(prog)
		if err := single.RunInto(in, out); err != nil { // warm the arena pool
			return err
		}
		singleTime, _, err := minOverSamples(func() (time.Duration, uint64, error) {
			start := time.Now()
			err := single.RunInto(in, out)
			return time.Since(start), 0, err
		})
		if err != nil {
			return err
		}
		if err := g.RunInto(in, out); err != nil { // warm every replica arena
			return err
		}
		replicated, _, err := minOverSamples(func() (time.Duration, uint64, error) {
			start := time.Now()
			err := g.RunInto(in, out)
			return time.Since(start), 0, err
		})
		if err != nil {
			return err
		}
		rep.ReplicatedUS = float64(replicated.Microseconds())
		if replicated > 0 {
			rep.MeasuredReplicaSpeedup = singleTime.Seconds() / replicated.Seconds()
		}
		fmt.Fprintf(stdout, "           measured %.0f us/batch replicated vs %.0f us single-executor (%.2fx)\n",
			rep.ReplicatedUS, float64(singleTime.Microseconds()), rep.MeasuredReplicaSpeedup)
		if err := replicaCacheBurst(stdout, prog, g, rep); err != nil {
			return err
		}
	}
	for _, st := range g.ReplicaStats() {
		rj := replicaJSON{
			Replica: st.Replica, Devices: st.Devices, Weight: st.Weight, Share: st.Share,
			ScatterUS: st.ScatterUS, ModeledUS: st.ModeledUS,
		}
		line := fmt.Sprintf("           replica %d on %-38s %3d of %d images", st.Replica, st.Devices+":", st.Share, prog.InputShape().N)
		if st.ModeledUS > 0 {
			line += fmt.Sprintf(", modeled %8.0f us", st.ModeledUS)
		}
		if exec && st.Batches > 0 {
			rj.MeasuredUS = st.MeasuredUS
			line += fmt.Sprintf(", measured %8.0f us", st.MeasuredUS)
		}
		fmt.Fprintln(stdout, line)
		rep.ReplicaRecords = append(rep.ReplicaRecords, rj)
	}
	return nil
}

// replicaCacheBurst serves a short burst of duplicated single-image traffic
// through the cached batching server fronting the replica group, recording
// the cache counters: 8 distinct images requested 64 times must execute at
// most 8 times (single-flight plus memoisation).
func replicaCacheBurst(stdout io.Writer, prog *memruntime.Program, g *replica.Group, rep *netReport) error {
	srv, err := memruntime.NewServerWith(prog, g, memruntime.ServerConfig{
		Workers: 2, CacheEntries: 64,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	in := prog.InputShape()
	imgShape := tensor.Shape{N: 1, C: in.C, H: in.H, W: in.W}
	images := make([]*tensor.Tensor, 8)
	for i := range images {
		images[i] = tensor.Random(imgShape, tensor.NCHW, uint64(1000+i))
	}
	const requests = 64
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _ = srv.Infer(context.Background(), images[i%len(images)])
		}(i)
	}
	wg.Wait()
	st := srv.Stats()
	if cs := st.Cache; cs != nil {
		rep.CacheHits, rep.CacheMisses, rep.CacheEvictions = cs.Hits, cs.Misses, cs.Evictions
		fmt.Fprintf(stdout, "           cache burst: %d requests -> %d hits, %d misses, %d evictions\n",
			requests, cs.Hits, cs.Misses, cs.Evictions)
	}
	rep.ServeShed, rep.ServeExpired = st.Shed, st.Expired
	if fs := st.Faults; fs != nil {
		rep.ServeRetries, rep.ServeFailovers = fs.Retries, fs.Failovers
	}
	return nil
}

// chaosSoak serves 200 full batches through a replica group whose devices all
// run a seeded deterministic fault schedule — and whose replica 1 dies
// permanently partway through — recording the retry/failover counters and
// checking every batch stays bit-identical to the single-device golden run.
func chaosSoak(stdout io.Writer, prog *memruntime.Program, rc replicaConfig, rep *netReport) error {
	fleet, err := replica.ParseDevices(rc.spec, rc.count, 1)
	if err != nil {
		return err
	}
	for r := range fleet {
		for s, d := range fleet[r] {
			cfg := memruntime.FaultConfig{
				Seed:          rc.chaosSeed + uint64(r*len(fleet[r])+s),
				TransientRate: 0.002,
			}
			if r == 1 && s == 0 {
				cfg.KillAfterOps = int64(20 * len(prog.Ops))
			}
			fleet[r][s] = memruntime.WrapFault(d, cfg)
		}
	}
	g, err := replica.NewGroup(prog, rc.count, replica.Config{
		Devices:      fleet,
		RetryBackoff: memruntime.Backoff{Base: 100 * time.Microsecond, Max: time.Millisecond},
	})
	if err != nil {
		return err
	}
	defer g.Close()

	in := tensor.Random(prog.InputShape(), tensor.NCHW, rc.chaosSeed)
	golden := tensor.New(prog.OutputShape(), tensor.NCHW)
	if err := memruntime.NewExecutor(prog).RunInto(in, golden); err != nil {
		return err
	}
	out := tensor.New(prog.OutputShape(), tensor.NCHW)
	const soakBatches = 200
	mismatches := 0
	for i := 0; i < soakBatches; i++ {
		if err := g.RunInto(in, out); err != nil {
			return fmt.Errorf("chaos soak batch %d: %w", i, err)
		}
		for j := range golden.Data {
			if out.Data[j] != golden.Data[j] {
				mismatches++
				break
			}
		}
	}
	fs := g.FaultStats()
	rep.ChaosSeed, rep.ChaosBatches, rep.ChaosMismatches = rc.chaosSeed, soakBatches, mismatches
	rep.ChaosRetries, rep.ChaosFailovers = fs.Retries, fs.Failovers
	rep.ChaosReadmissions, rep.ChaosUnhealthy = fs.Readmissions, fs.UnhealthyReplicas
	fmt.Fprintf(stdout, "           chaos soak (seed %d): %d batches, %d mismatches, %d retries, %d failovers, %d unhealthy\n",
		rc.chaosSeed, soakBatches, mismatches, fs.Retries, fs.Failovers, fs.UnhealthyReplicas)
	if mismatches > 0 {
		return fmt.Errorf("chaos soak: %d of %d batches differed from the single-device golden", mismatches, soakBatches)
	}
	return nil
}

// trainNetReport compiles the network's full training step (forward + loss +
// backward + SGD) with and without recompute checkpointing, records the
// planned footprints and the modeled step latency, and — when exec is set —
// measures planned and naive training steps while printing the loss curve.
func trainNetReport(stdout io.Writer, hw *gpusim.Device, net *network.Network, exec bool, rep *netReport) error {
	store, err := train.CompileTraining(net, train.Options{Checkpoint: train.CheckpointOff})
	if err != nil {
		return err
	}
	ckpt, err := train.CompileTraining(net, train.Options{Checkpoint: train.CheckpointOn})
	if err != nil {
		return err
	}
	// The library's synthetic [-1,1) weights saturate the softmax into exact
	// one-hot rows, freezing the loss; rescaling the FC weights by
	// 1/sqrt(fan-in) (safe in place: unlike conv filters they have no packed
	// copy) and training gently keeps the sanity curve moving.  The learning
	// rate does not affect the memory plan.
	auto, err := train.CompileTraining(net, train.Options{SGD: train.SGD{LR: 1e-4}})
	if err != nil {
		return err
	}
	rep.TrainOps = len(auto.Ops)
	rep.TrainPeakBytes = auto.Mem.PeakBytes()
	rep.TrainStorePeakBytes = store.Mem.PeakBytes()
	rep.TrainCkptPeakBytes = ckpt.Mem.PeakBytes()
	rep.TrainNaiveBytes = store.NaiveBytes()
	rep.TrainRecomputeOps = ckpt.RecomputeOps
	rep.TrainModeledUS = memruntime.NewSimDevice("train", hw).ModelProgramUS(auto.Program)

	if !exec {
		return nil
	}
	for _, l := range net.Layers {
		if fc, ok := l.(*layers.FullyConnected); ok {
			w := fc.Weights()
			s := float32(1 / math.Sqrt(float64(fc.InDim)))
			for i := range w {
				w[i] *= s
			}
		}
	}
	planned, err := train.NewExecutor(auto)
	if err != nil {
		return err
	}
	naive, err := train.NewNaiveExecutor(store, memruntime.CPUDevice{})
	if err != nil {
		return err
	}
	images := tensor.Random(auto.InputShape(), tensor.NCHW, 1)
	labels := make([]int, auto.Batch)
	for i := range labels {
		labels[i] = i % auto.Classes
	}

	// One warm step pays the lazy filter generation, then a short loss curve
	// whose fastest step is the trend-gated latency.
	if _, err := planned.Step(images, labels); err != nil {
		return err
	}
	var losses []float64
	var best time.Duration
	for s := 0; s < latencySamples; s++ {
		start := time.Now()
		stats, err := planned.Step(images, labels)
		elapsed := time.Since(start)
		if err != nil {
			return err
		}
		losses = append(losses, stats.Loss)
		if s == 0 || elapsed < best {
			best = elapsed
		}
	}
	rep.TrainUS = float64(best.Microseconds())
	rep.TrainLoss = losses[len(losses)-1]

	if _, err := naive.Step(images, labels); err != nil {
		return err
	}
	naiveTime, _, err := minOverSamples(func() (time.Duration, uint64, error) {
		start := time.Now()
		_, err := naive.Step(images, labels)
		return time.Since(start), 0, err
	})
	if err != nil {
		return err
	}
	rep.TrainNaiveUS = float64(naiveTime.Microseconds())

	curve := ""
	for i, l := range losses {
		if i > 0 {
			curve += " -> "
		}
		curve += fmt.Sprintf("%.4f", l)
	}
	fmt.Fprintf(stdout, "         training step: planned %.0f us vs naive %.0f us measured, modeled %.0f us; loss %s\n",
		rep.TrainUS, rep.TrainNaiveUS, rep.TrainModeledUS, curve)
	return nil
}

// printTrainTable prints the planned-vs-naive training footprint per network,
// with and without recompute checkpointing — the training counterpart of the
// inference savings table.
func printTrainTable(stdout io.Writer, reports []netReport) {
	fmt.Fprintf(stdout, "\ntraining memory (forward + loss + backward + SGD):\n")
	fmt.Fprintf(stdout, "%-8s %6s %11s %11s %11s %10s %12s %11s\n",
		"network", "ops", "naive", "store", "ckpt", "recompute", "saved(store)", "saved(ckpt)")
	for _, r := range reports {
		if r.TrainOps == 0 {
			continue
		}
		naive := float64(r.TrainNaiveBytes)
		fmt.Fprintf(stdout, "%-8s %6d %7.2f MiB %7.2f MiB %7.2f MiB %10d %11.0f%% %10.0f%%\n",
			r.Network, r.TrainOps,
			naive/(1<<20), float64(r.TrainStorePeakBytes)/(1<<20), float64(r.TrainCkptPeakBytes)/(1<<20),
			r.TrainRecomputeOps,
			100*(1-float64(r.TrainStorePeakBytes)/naive),
			100*(1-float64(r.TrainCkptPeakBytes)/naive))
	}
	fmt.Fprintln(stdout)
}

// timedRun executes one warmed planned program and returns the elapsed time
// and the heap bytes allocated during the run.
func timedRun(exec *memruntime.Executor, in, out *tensor.Tensor) (time.Duration, uint64, error) {
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	start := time.Now()
	err := exec.RunInto(in, out)
	elapsed := time.Since(start)
	goruntime.ReadMemStats(&after)
	return elapsed, after.TotalAlloc - before.TotalAlloc, err
}

// latencySamples is the sample count for the metrics the CI trend gate
// consumes (naive_us, selected_us, pipelined_us): each is the minimum of N
// runs, which filters GC pauses and scheduler noise on shared runners.  Nine,
// because a LeNet forward is now ~150 ms: three samples of the naive forward
// (the gate's denominator, and the first thing a fresh process runs) spread
// 2.2x between runs on a 2-vCPU host, nine spread 1.25x.
const latencySamples = 9

// minOverSamples runs the measurement latencySamples times and returns the
// fastest elapsed time together with that run's companion value.
func minOverSamples(run func() (time.Duration, uint64, error)) (time.Duration, uint64, error) {
	var best time.Duration
	var bestV uint64
	for s := 0; s < latencySamples; s++ {
		elapsed, v, err := run()
		if err != nil {
			return 0, 0, err
		}
		if s == 0 || elapsed < best {
			best, bestV = elapsed, v
		}
	}
	return best, bestV, nil
}

// quantileRuns is how many extra selected-program runs feed the p50/p99
// latency histogram after the gated min-over-samples timing.
const quantileRuns = 16

// traceLane hands each network its own trace lane so the -trace output shows
// one named track per network in chrome://tracing.
var traceLane = memruntime.LaneEngine

// timeExecution times the naive forward, the direct-only program and the
// algorithm-selected program (after warming the arena pools) and reports
// their functional throughput; the trend-gated metrics take the minimum of
// latencySamples runs.  When direct and selected are the same program
// (selection disabled) the planned execution alone is timed.  A further
// quantileRuns passes feed a latency histogram for p50/p99 — recorded as op
// and run spans into traceRec when non-nil.
func timeExecution(stdout io.Writer, net *network.Network, direct, selected *memruntime.Program, traceRec *obs.Recorder, rep *netReport) error {
	in := tensor.Random(net.InputShape(), tensor.NCHW, 1)
	naive, _, err := minOverSamples(func() (time.Duration, uint64, error) {
		start := time.Now()
		_, err := net.Forward(in)
		return time.Since(start), 0, err
	})
	if err != nil {
		return fmt.Errorf("netbench: %s naive forward: %w", net.Name, err)
	}

	out := tensor.New(selected.OutputShape(), tensor.NCHW)
	selectedExec := memruntime.NewExecutor(selected)
	if err := selectedExec.RunInto(in, out); err != nil { // warm the arena pool
		return fmt.Errorf("netbench: %s planned run: %w", net.Name, err)
	}
	selectedTime, allocBytes, err := minOverSamples(func() (time.Duration, uint64, error) {
		return timedRun(selectedExec, in, out)
	})
	if err != nil {
		return fmt.Errorf("netbench: %s planned run: %w", net.Name, err)
	}

	// Tail quantiles come from extra runs AFTER the gated min-over-samples
	// timing, through an instrumented executor when -trace is set — so the
	// span recording can never perturb the trend-gated SelectedUS number.
	if traceRec != nil {
		lane := traceLane
		traceLane++
		traceRec.SetLane(lane, "engine ("+net.Name+")")
		selectedExec.Instrument(memruntime.Observer{Trace: traceRec}, lane)
	}
	qh := obs.NewHistogram()
	for i := 0; i < quantileRuns; i++ {
		start := time.Now()
		if err := selectedExec.RunInto(in, out); err != nil {
			return fmt.Errorf("netbench: %s quantile run: %w", net.Name, err)
		}
		qh.Observe(float64(time.Since(start)) / 1e3)
	}

	batch := float64(net.Batch)
	rep.NaiveUS = float64(naive.Microseconds())
	rep.SelectedUS = float64(selectedTime.Microseconds())
	rep.P50US = qh.Quantile(0.50)
	rep.P99US = qh.Quantile(0.99)
	rep.SelectedImgsPerSec = batch / selectedTime.Seconds()
	rep.SelectedAllocBytes = allocBytes

	if direct == selected {
		fmt.Fprintf(stdout, "         naive %8.1f | planned %8.1f imgs/sec (%.2fx, %d alloc B)\n",
			batch/naive.Seconds(), batch/selectedTime.Seconds(),
			naive.Seconds()/selectedTime.Seconds(), allocBytes)
		rep.DirectUS = rep.SelectedUS
		return nil
	}

	directExec := memruntime.NewExecutor(direct)
	if err := directExec.RunInto(in, out); err != nil {
		return fmt.Errorf("netbench: %s direct run: %w", net.Name, err)
	}
	directTime, _, err := timedRun(directExec, in, out)
	if err != nil {
		return fmt.Errorf("netbench: %s direct run: %w", net.Name, err)
	}
	fmt.Fprintf(stdout, "         naive %8.1f | direct %8.1f | selected %8.1f imgs/sec (%.2fx vs direct, %d alloc B)\n",
		batch/naive.Seconds(), batch/directTime.Seconds(), batch/selectedTime.Seconds(),
		directTime.Seconds()/selectedTime.Seconds(), allocBytes)
	rep.DirectUS = float64(directTime.Microseconds())
	return nil
}
