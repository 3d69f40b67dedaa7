package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// resultFile is what -json writes: every run of every workload and the box
// they ran on. compare reads two of these.
type resultFile struct {
	Schema  string    `json:"schema"`
	Seed    uint64    `json:"seed"`
	Seconds float64   `json:"seconds"`
	Scale   string    `json:"scale"`
	Env     envRecord `json:"env"`
	Noisy   bool      `json:"noisy"`
	// Workloads maps a workload name to its runs.
	Workloads map[string]*workloadRuns `json:"workloads"`
}

const resultSchema = "kamsta-benchmark/v1"

// workloadRuns holds one workload's untraced runs (seed, seed+1, ...) and
// its traced run.
type workloadRuns struct {
	Runs   []runResult `json:"runs"`
	Traced *runResult  `json:"traced,omitempty"`
}

// values lists one end-to-end metric over the runs.
func (w *workloadRuns) values(metric string) []float64 {
	var out []float64
	for _, r := range w.Runs {
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// runAll runs every workload in a child process of its own, so peak RSS and
// heap are per workload, one after the other. It returns the exit code:
// non-zero when any run failed or reported a failed job.
func runAll(cfg runConfig, reps int, jsonPath string) int {
	env := readEnv()
	if env.noisy() {
		fmt.Fprintf(os.Stderr, "benchmark: noisy box: load average %.2f on %d cpus before the run\n", env.LoadStart, env.NProc)
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	out := resultFile{Schema: resultSchema, Seed: cfg.seed, Seconds: cfg.seconds, Scale: cfg.scale,
		Noisy: env.noisy(), Workloads: map[string]*workloadRuns{}}
	code := 0
	child := func(w workload, seed uint64, trace int) *runResult {
		cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
			"-scale", cfg.scale, "-layers", cfg.layersBin, "-outdir", cfg.outDir)
		cmd.Stderr = os.Stderr
		b, runErr := cmd.Output()
		lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
		var res runResult
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: no result (%v, %v)\n", w.name, seed, runErr, err)
			code = 1
			return nil
		}
		if runErr != nil || res.exitCode() != 0 {
			code = 1
		}
		return &res
	}
	for _, w := range workloads {
		runs := &workloadRuns{}
		out.Workloads[w.name] = runs
		for i := 0; i < reps; i++ {
			if res := child(w, cfg.seed+uint64(i), 0); res != nil {
				runs.Runs = append(runs.Runs, *res)
			}
		}
		if cfg.trace {
			runs.Traced = child(w, cfg.seed, 1)
		}
		fmt.Printf("%s (%d runs)\n", w.name, len(runs.Runs))
		for _, d := range endToEnd {
			vs := runs.values(d.Name)
			fmt.Printf("  %-32s %16.6g %-8s spread %.3f\n", d.Name, median(vs), d.Unit, spread(vs))
		}
		if runs.Traced != nil {
			for _, d := range perLayer {
				fmt.Printf("  %-32s %16.6g %s\n", d.Name, runs.Traced.Metrics[d.Name].Value, d.Unit)
			}
		}
	}
	env.LoadEnd = load1()
	out.Env = env
	if jsonPath != "" {
		b, err := json.MarshalIndent(out, "", " ")
		if err == nil {
			err = os.WriteFile(jsonPath, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	return code
}
