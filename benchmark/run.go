package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// setupReps is how often an untraced run sets the workload up; setup_s is
// the median, and the last instance is the one measured.
const setupReps = 3

// runConfig is one workload run.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	scale    string
	// layersBin is the built benchmark/layers program a traced run calls;
	// outDir receives the trace file.
	layersBin string
	outDir    string
}

// runWorkload sets a workload up, measures its closed loop for the
// configured window and assembles the run's metrics: the end-to-end set
// untraced, the per-layer set traced. Failed jobs are reported on stderr.
func runWorkload(cfg runConfig) (_ runResult, err error) {
	w, err := findWorkload(cfg.workload, cfg.scale)
	if err != nil {
		return runResult{}, err
	}
	reps := setupReps
	if cfg.trace {
		reps = 1 // setup_s is an end-to-end metric
	}
	var inst instance
	var setups []float64
	for i := 0; i < reps; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return runResult{}, fmt.Errorf("closing set-up %d: %w", i, err)
			}
		}
		begin := time.Now()
		if inst, err = w.setup(cfg.seed, cfg.trace); err != nil {
			return runResult{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(begin).Seconds())
	}
	defer func() {
		if inst != nil {
			err = errors.Join(err, inst.close())
		}
	}()

	var rec *recorder
	if cfg.trace {
		rec = &recorder{}
	}
	regBefore := inst.counters()
	before, err := snapProcess()
	if err != nil {
		return runResult{}, err
	}
	samples := measure(inst, time.Duration(cfg.seconds*float64(time.Second)), rec)
	after, err := snapProcess()
	if err != nil {
		return runResult{}, err
	}
	regAfter := inst.counters()

	t := tallySamples(samples)
	for _, err := range t.errs {
		fmt.Fprintf(os.Stderr, "benchmark: %s: failed job: %v\n", w.name, err)
	}
	secs, failed := t.secs, len(t.errs)
	jobs := float64(len(samples))
	if !cfg.trace {
		return newRunResult(endToEnd, map[string]float64{
			"setup_s":          median(setups),
			"job_s_p50":        median(secs[armPlain]),
			"edges_per_s":      float64(t.edges) / after.at.Sub(before.at).Seconds(),
			"cpu_s_per_job":    (after.cpuS - before.cpuS) / jobs,
			"alloc_mb_per_job": float64(after.allocBytes-before.allocBytes) / 1e6 / jobs,
		}, len(samples), failed)
	}

	// Peak RSS is read before the microcalls' child process runs; it covers
	// every arm's machine, so it compares traced runs with traced runs.
	rssKB, err := peakRSSKB()
	if err != nil {
		return runResult{}, err
	}

	tail := tailPercentile(len(secs[armPlain]))
	values := map[string]float64{
		"kamsta.jobs_measured":        float64(len(secs[armPlain])),
		"kamsta.tail_percentile":      tail,
		"kamsta.job_s_tail":           percentile(secs[armPlain], tail/100),
		"kamsta.modeled_s":            median(t.modeled),
		"runtime.gc_count_per_job":    float64(after.gcCount-before.gcCount) / jobs,
		"runtime.gc_pause_ms_per_job": float64(after.gcPauseNs-before.gcPauseNs) / 1e6 / jobs,
		"runtime.peak_rss_mb":         rssKB * 1024 / 1e6,
		"obs.trace_overhead_ratio":    ratio(median(secs[armTraced]), median(secs[armPlain])),
	}
	own, err := inst.layerValues(samples, rec.selfSeconds(), regBefore, regAfter)
	if err != nil {
		failed++
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
	}
	// The microcalls want a quiet box: shut the workload down and hand its
	// memory back first, or the child's page faults cost several times more.
	layerArgs := inst.layerArgs()
	err, inst = inst.close(), nil
	if err != nil {
		return runResult{}, err
	}
	debug.FreeOSMemory()
	micro, err := runLayers(cfg, layerArgs, rec)
	if err != nil {
		return runResult{}, err
	}
	for _, m := range []map[string]float64{own, micro} {
		for name, v := range m {
			values[name] = v
		}
	}
	path := filepath.Join(cfg.outDir, "trace-"+w.name+".json")
	if err := rec.writeChrome(path); err != nil {
		return runResult{}, fmt.Errorf("trace file: %w", err)
	}
	fmt.Fprintf(os.Stderr, "benchmark: %s: %d spans in %s\n", w.name, len(rec.spans), path)
	return newRunResult(perLayer, values, len(samples), failed)
}

// tally is a window's samples sorted into what the metrics are made of.
type tally struct {
	secs    [3][]float64 // per arm: caller-side seconds of the correct jobs
	modeled []float64    // modeled seconds of the plain arm's correct jobs
	edges   int          // directed input edges of all correct jobs
	errs    []error      // one per failed job: error, rejection or wrong answer
}

func tallySamples(samples []sample) tally {
	var t tally
	for _, s := range samples {
		if s.err != nil {
			t.errs = append(t.errs, s.err)
			continue
		}
		t.secs[s.arm] = append(t.secs[s.arm], s.seconds)
		t.edges += s.edges
		if s.arm == armPlain {
			t.modeled = append(t.modeled, s.modeled)
		}
	}
	return t
}

// measure runs the closed loop until the window ends: every client sends
// its next job when the previous one has returned, cycling through the
// arms. Every client runs at least one job per arm however short the
// window.
func measure(inst instance, window time.Duration, rec *recorder) []sample {
	deadline := time.Now().Add(window)
	var (
		mu     sync.Mutex
		all    []sample
		nextID atomic.Int64
		wg     sync.WaitGroup
	)
	for c := 0; c < inst.clients(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var mine []sample
			for k := 0; k < inst.arms() || time.Now().Before(deadline); k++ {
				mine = append(mine, inst.job(c, k%inst.arms(), int(nextID.Add(1)), rec))
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return all
}

// layersOutput is what the benchmark/layers program prints: its metrics and
// one span per microcall, as offsets from its start.
type layersOutput struct {
	Metrics map[string]float64 `json:"metrics"`
	Spans   []struct {
		Name    string  `json:"name"`
		StartUS float64 `json:"start_us"`
		DurUS   float64 `json:"dur_us"`
	} `json:"spans"`
}

// runLayers runs the layer microcalls in their own process and files their
// spans under a microcalls root (job 0). The microcalls reach into
// internal/* packages; keeping them out of this package keeps the
// end-to-end run compiling whatever happens to those signatures.
func runLayers(cfg runConfig, args []string, rec *recorder) (map[string]float64, error) {
	if cfg.layersBin == "" {
		return nil, errors.New("a traced run needs the built layers program (-layers)")
	}
	args = append(args, "-seed", strconv.FormatUint(cfg.seed, 10), "-scale", cfg.scale)
	cmd := exec.Command(cfg.layersBin, args...)
	cmd.Stderr = os.Stderr
	begin := time.Now()
	b, err := cmd.Output()
	end := time.Now()
	if err != nil {
		return nil, fmt.Errorf("layers: %w", err)
	}
	var out layersOutput
	if err := json.Unmarshal(b, &out); err != nil {
		return nil, fmt.Errorf("layers output: %w", err)
	}
	root := rec.add("microcalls", begin, end, -1, 0)
	for _, s := range out.Spans {
		at := begin.Add(time.Duration(s.StartUS * float64(time.Microsecond)))
		rec.add(s.Name, at, at.Add(time.Duration(s.DurUS*float64(time.Microsecond))), root, 0)
	}
	return out.Metrics, nil
}
