// Command benchmark is the repository's benchmark: four workloads that use
// the system the way its users do, timed on the host from outside its public
// functions, every output checked against an independent reference.
//
//	benchmark/run.sh                       every workload, untraced then traced; writes benchmark/out/
//	benchmark/run.sh -repeat 10            the same, ten seeds per workload, with the spread of each metric
//	benchmark/run.sh -workload serve-cifar8 -seed 7 -seconds 20 -trace 0
//	benchmark/run.sh -update-golden        recompute golden/alexnet4-pool.json (minutes)
//
// A single-workload run ends with one line of JSON: correct, attempted, failed
// and the end-to-end metrics (-trace 0) or the per-layer metrics (-trace 1).
// README.md says what each metric means and which should move which.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

func main() { os.Exit(run()) }

func run() int {
	startup = time.Since(processStart)
	var (
		workloadName = flag.String("workload", "", "run this one workload (default: all of them, each in a fresh process)")
		seed         = flag.Uint64("seed", 1, "workload seed: inputs, labels and arrival times all derive from it")
		seconds      = flag.Int("seconds", defaultSeconds, "length of the timed region of one run")
		trace        = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 runs traced and reports the per-layer metrics")
		repeat       = flag.Int("repeat", 1, "without -workload: untraced runs per workload, each on the next seed, to report each metric's spread")
		golden       = flag.Bool("update-golden", false, "recompute the AlexNet reference outputs with the naive forward and exit")
		setupOnly    = flag.Bool("setup-only", false, "with -workload: set the workload up, print the set-up time and exit (what a run starts to sample setup_s)")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		return 2
	}

	var err error
	switch {
	case *golden:
		err = updateGolden(sourceDir())
	case *workloadName == "":
		err = runAll(*seed, *seconds, *repeat)
	default:
		def, ok := findWorkload(*workloadName)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q; the workloads are:\n", *workloadName)
			for _, d := range workloadDefs {
				fmt.Fprintf(os.Stderr, "  %-16s %s\n", d.name, d.why)
			}
			return 2
		}
		if *setupOnly {
			err = runSetupOnly(def, *seed)
		} else {
			err = runOne(def, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// sourceDir is the benchmark's own directory: run.sh starts the program at the
// root of the checkout, `go run .` inside benchmark/.
func sourceDir() string {
	if _, err := os.Stat("benchmark/go.mod"); err == nil {
		return "benchmark"
	}
	return "."
}

// outDir is where results and traces are written.
func outDir() (string, error) {
	dir := sourceDir() + "/out"
	return dir, os.MkdirAll(dir, 0o755)
}

// metricValue is one metric as the result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// errIncorrect ends a run whose result line says correct: false.
var errIncorrect = fmt.Errorf("outputs missed their reference or operations failed")

// finish prints the result line: every metric of defs, 0 for one the workload
// does not have.
func finish(defs []metricDef, m metrics, attempted, failed int) error {
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := m[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// runSetupOnly is the child a run starts to take one more sample of setup_s
// in a process that has done nothing else.
func runSetupOnly(def workloadDef, seed uint64) error {
	took, err := def.build(seed).setup()
	if err != nil {
		return err
	}
	fmt.Printf("{\"setup_s\": %v}\n", (startup + took).Seconds())
	return nil
}

// runOne runs one workload in this process and prints its metrics.
func runOne(def workloadDef, seed uint64, d time.Duration, traced bool) error {
	mode := "untraced"
	if traced {
		mode = "traced"
	}
	fmt.Printf("== %s (seed %d, %v, %s) ==\n", def.name, seed, d, mode)
	// setup_s is the median over setupRuns processes: this one and, before it
	// holds any memory, fresh ones that set up and exit, one after another.
	// (A process that sets up while another holds its footprint takes pages
	// the host has not backed yet: AlexNet's 280 MB then take two to four
	// times as long to touch, which says nothing about the program.)
	var setups []float64
	for !traced && len(setups) < def.setupRuns-1 {
		s, err := childSetup(def.name, seed)
		if err != nil {
			return fmt.Errorf("set-up in a fresh process: %w", err)
		}
		setups = append(setups, s)
	}
	// The host probe's memory is resident before the workload exists, so the
	// process's high-water mark is the workload's plus exactly that.
	hp, err := newHostProbe()
	if err != nil {
		return err
	}
	w := def.build(seed)
	took, err := w.setup()
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	if traced {
		return runTraced(def, w, d, hp)
	}
	setups = append(setups, (startup + took).Seconds())

	t, err := w.measure(d, nil, hp)
	if err != nil {
		return err
	}
	// Before any reference is computed: the naive forward allocates.
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	rss -= hp.residentMiB()
	missed, err := w.verify()
	if err != nil {
		return err
	}
	attempted, failed := t.attempted+1, t.failed+missed // +1: the cold operation of set-up

	m := metrics{
		"setup_s":          median(setups),
		"throughput_img_s": float64(t.images) / t.wall.Seconds(),
		"latency_p50_ms":   t.medianMS(),
		"latency_tail_ms":  percentile(t.latMS, def.tailQ),
		"peak_arena_mib":   float64(w.program().Mem.PeakBytes()) / (1 << 20),
		"peak_rss_mib":     rss,
		"ok_frac":          1 - float64(failed)/float64(attempted),
	}
	n := len(t.latMS)
	fmt.Printf("host probe: median %.1f ms over %d readings, nominal %.0f ms; every timing below but setup_s is wall time x nominal / reading, with the raw wall figure beside it\n",
		median(t.probes), len(t.probes), probeNominalMS)
	notes := map[string]string{
		"setup_s":          fmt.Sprintf("wall; median of %d set-ups: %s", len(setups), joinFloats(setups, "%.3f")),
		"throughput_img_s": fmt.Sprintf("%d images in %.2f s; raw %.6g in %.2f s", t.images, t.wall.Seconds(), float64(t.images)/t.rawWall.Seconds(), t.rawWall.Seconds()),
		"latency_p50_ms":   fmt.Sprintf("n=%d; raw %.3f", n, median(t.rawMS)),
		"latency_tail_ms":  fmt.Sprintf("p%g, n=%d; raw %.3f; %s", 100*def.tailQ, n, percentile(t.rawMS, def.tailQ), tailNote(t.rawMS)),
		"ok_frac":          fmt.Sprintf("attempted %d, succeeded %d, failed %d; failed_frac %.4f", attempted, attempted-failed, failed, float64(failed)/float64(attempted)),
	}
	printMetrics(endToEndDefs, m, notes)
	return finish(endToEndDefs, m, attempted, failed)
}

// tailNote says how far into the tail this many samples reach.
func tailNote(lat []float64) string {
	n := len(lat)
	note := fmt.Sprintf("slowest %.3f ms", percentile(lat, 1))
	if n >= 100 {
		note = fmt.Sprintf("p99 %.3f ms, ", percentile(lat, 0.99)) + note
	}
	if q := tailQuantile(n); q > 0 {
		return note + fmt.Sprintf("; highest percentile with ten samples beyond it: p%g", q*100)
	}
	return note + "; too few samples for any percentile to have ten beyond it"
}

// runTraced takes the per-layer metrics and writes the trace file.
func runTraced(def workloadDef, w workload, d time.Duration, hp *hostProbe) error {
	m := metrics{"host.probe_ms": hp.reading(5)}
	spans, t, err := w.layers(m, d)
	if err != nil {
		return err
	}
	m["host.probe_ms"] = (m["host.probe_ms"] + hp.reading(5)) / 2
	missed, err := w.verify()
	if err != nil {
		return err
	}
	w.referenceMetrics(m)
	dir, err := outDir()
	if err != nil {
		return err
	}
	path := fmt.Sprintf("%s/trace-%s.json", dir, def.name)
	if err := writeChromeTrace(path, spans); err != nil {
		return fmt.Errorf("writing the trace: %w", err)
	}
	fmt.Printf("wrote %d spans to %s\n", len(spans), path)
	printMetrics(perLayerDefs, m, nil)
	return finish(perLayerDefs, m, t.attempted+1, t.failed+missed)
}

// printMetrics prints every metric by name with its unit.
func printMetrics(defs []metricDef, m metrics, notes map[string]string) {
	for _, d := range defs {
		line := fmt.Sprintf("%-30s %14.6g %-9s", d.name, m[d.name], d.unit)
		if note := notes[d.name]; note != "" {
			line += " (" + note + ")"
		}
		fmt.Println(strings.TrimRight(line, " "))
	}
}

func joinFloats(v []float64, format string) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, " ")
}
