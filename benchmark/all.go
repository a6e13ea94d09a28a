package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	goruntime "runtime"
	"strings"
)

// child runs this binary again with the given arguments, copies what it prints
// to w and returns its last line.  Every workload, and every extra sample of
// set-up time, gets a process of its own, so that none sees memory or caches
// another one warmed.
func child(w io.Writer, args ...string) (lastLine string, err error) {
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return "", err
	}
	if err := cmd.Start(); err != nil {
		return "", err
	}
	sc := bufio.NewScanner(out) // a result line is a few kilobytes, well inside the default limit
	for sc.Scan() {
		lastLine = sc.Text()
		fmt.Fprintln(w, lastLine)
	}
	// Wait reports the exit status; a scan error only matters if it succeeds.
	if err := cmd.Wait(); err != nil {
		return lastLine, fmt.Errorf("%s %s: %w", self, strings.Join(args, " "), err)
	}
	return lastLine, sc.Err()
}

// childSetup sets a workload up in a fresh process and returns how long it took.
func childSetup(name string, seed uint64) (float64, error) {
	line, err := child(io.Discard, "-workload", name, "-seed", fmt.Sprint(seed), "-setup-only")
	if err != nil {
		return 0, err
	}
	var got struct {
		SetupS float64 `json:"setup_s"`
	}
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		return 0, fmt.Errorf("set-up child printed %q: %w", line, err)
	}
	return got.SetupS, nil
}

// childRun runs one workload in a fresh process and parses its result line.
func childRun(name string, seed uint64, seconds, trace int) (result, error) {
	line, runErr := child(os.Stdout, "-workload", name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
	var res result
	if err := json.Unmarshal([]byte(line), &res); err != nil {
		if runErr != nil {
			return result{}, runErr
		}
		return result{}, fmt.Errorf("%s printed %q for a result: %w", name, line, err)
	}
	return res, nil // an incorrect run still has a result; the caller looks at Correct
}

// summary is one end-to-end metric over the repeated runs of a workload.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Spread float64   `json:"spread"` // (third quartile - first quartile) / median
	Values []float64 `json:"values"`
}

// workloadReport is one workload's part of results.json.
type workloadReport struct {
	Why       string                 `json:"why"`
	Seeds     []uint64               `json:"seeds"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	EndToEnd  map[string]summary     `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
	Trace     string                 `json:"trace"`
}

// report is results.json.
type report struct {
	Seed       uint64                    `json:"seed"`
	Seconds    int                       `json:"seconds"`
	Repeat     int                       `json:"repeat"`
	GoVersion  string                    `json:"go"`
	GOMAXPROCS int                       `json:"gomaxprocs"`
	Workloads  map[string]workloadReport `json:"workloads"`
}

// runAll runs every workload — repeat untraced runs on consecutive seeds, then
// one traced run — prints the summary and writes results.json.
func runAll(seed uint64, seconds, repeat int) error {
	rep := report{
		Seed: seed, Seconds: seconds, Repeat: repeat,
		GoVersion: goruntime.Version(), GOMAXPROCS: goruntime.GOMAXPROCS(0),
		Workloads: map[string]workloadReport{},
	}
	dir, err := outDir()
	if err != nil {
		return err
	}
	incorrect := false
	for _, def := range workloadDefs {
		wr := workloadReport{Why: def.why, EndToEnd: map[string]summary{}, Trace: "trace-" + def.name + ".json"}
		values := map[string][]float64{}
		for i := 0; i < repeat; i++ {
			s := seed + uint64(i)
			res, err := childRun(def.name, s, seconds, 0)
			if err != nil {
				return err
			}
			wr.Seeds = append(wr.Seeds, s)
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			incorrect = incorrect || !res.Correct
			for name, mv := range res.Metrics {
				values[name] = append(values[name], mv.Value)
			}
		}
		for _, d := range endToEndDefs {
			v := values[d.name]
			wr.EndToEnd[d.name] = summary{Unit: d.unit, Median: median(v), Spread: spread(v), Values: v}
		}
		res, err := childRun(def.name, seed, seconds, 1)
		if err != nil {
			return err
		}
		wr.Attempted += res.Attempted
		wr.Failed += res.Failed
		incorrect = incorrect || !res.Correct
		wr.PerLayer = res.Metrics
		rep.Workloads[def.name] = wr
	}

	printReport(rep)
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	path := dir + "/results.json"
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s and %d trace files in %s\n", path, len(workloadDefs), dir)
	if incorrect {
		return errIncorrect
	}
	return nil
}

// printReport prints every metric of every workload by name: the end-to-end
// ones with the spread over the repeated runs, then the per-layer ones.
func printReport(rep report) {
	fmt.Printf("\n==== end to end: median over %d run(s) of %d s; spread = (Q3-Q1)/median ====\n", rep.Repeat, rep.Seconds)
	fmt.Printf("%-20s", "metric")
	for _, def := range workloadDefs {
		fmt.Printf(" %24s", def.name)
	}
	fmt.Println()
	for _, d := range endToEndDefs {
		fmt.Printf("%-20s", d.name+" ["+d.unit+"]")
		for _, def := range workloadDefs {
			s := rep.Workloads[def.name].EndToEnd[d.name]
			fmt.Printf(" %15.6g ±%5.1f%%", s.Median, 100*s.Spread)
		}
		fmt.Println()
	}
	fmt.Printf("%-20s", "attempted/failed")
	for _, def := range workloadDefs {
		wr := rep.Workloads[def.name]
		fmt.Printf(" %24s", fmt.Sprintf("%d/%d", wr.Attempted, wr.Failed))
	}
	fmt.Println()

	fmt.Printf("\n==== per layer: one traced run of %d s, seed %d ====\n", rep.Seconds, rep.Seed)
	fmt.Printf("%-42s", "metric")
	for _, def := range workloadDefs {
		fmt.Printf(" %16s", def.name)
	}
	fmt.Println()
	for _, d := range perLayerDefs {
		fmt.Printf("%-42s", d.name+" ["+d.unit+"]")
		for _, def := range workloadDefs {
			fmt.Printf(" %16.6g", rep.Workloads[def.name].PerLayer[d.name].Value)
		}
		fmt.Println()
	}
}
