package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// manifest is the part of BENCHMARK.json the harness reads.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readJSON(path string, into any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// quartiles are the first and third quartile as Python's
// statistics.quantiles(xs, n=4) gives them, so spreads printed here are the
// ones the driver computes. Fewer than two values have no spread.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		return median(xs), median(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		d := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-d) + s[j]*d) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, median(xs))
}

// verdict compares one metric's runs on two sides. worsening is the signed
// relative change of the median in the metric's bad direction, with side
// a's median as its base.
//
//	ok          within the bound, and the spread lets that be said
//	worse       beyond the bound
//	unresolved  run-to-run spread on either side is wider than the bound,
//	            unless every run of b is better (ok) or every run of b is
//	            worse and the medians differ by more than the bound (worse)
func verdict(a, b []float64, better string, bound float64) (worsening float64, v string) {
	sign := 1.0
	if better == "higher" {
		sign = -1
	}
	worsening = sign * ratio(median(b)-median(a), median(a))
	if max(spread(a), spread(b)) <= bound {
		if worsening > bound {
			return worsening, "worse"
		}
		return worsening, "ok"
	}
	allBetter, allWorse := true, true
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
			if sign*(y-x) <= 0 {
				allWorse = false
			}
		}
	}
	switch {
	case allBetter:
		return worsening, "ok"
	case allWorse && worsening > bound:
		return worsening, "worse"
	}
	return worsening, "unresolved"
}

// compareMain prints, per workload and end-to-end metric, both medians, the
// relative change with its base, the bound and a verdict. Its exit code is
// non-zero on any "worse" or failed job.
func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	manifestPath := fs.String("manifest", "BENCHMARK.json", "the benchmark manifest holding the bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare [-manifest BENCHMARK.json] a.json b.json")
		return 2
	}
	var mf manifest
	var a, b resultFile
	if err := errors.Join(readJSON(*manifestPath, &mf), readJSON(fs.Arg(0), &a), readJSON(fs.Arg(1), &b)); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark compare: %v\n", err)
		return 2
	}
	code := 0
	fmt.Fprintf(w, "%-16s %-18s %12s %12s %9s %6s  %s\n", "workload", "metric", "a", "b", "worsening", "bound", "verdict")
	for _, wl := range mf.Workloads {
		ra, rb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if ra == nil || rb == nil {
			fmt.Fprintf(w, "%-16s missing on one side\n", wl.Name)
			code = 1
			continue
		}
		for _, m := range mf.EndToEnd {
			va, vb := ra.values(m.Name), rb.values(m.Name)
			worsening, v := verdict(va, vb, m.Better, m.Bound)
			if v == "worse" {
				code = 1
			}
			fmt.Fprintf(w, "%-16s %-18s %12.6g %12.6g %+8.1f%% %5.0f%%  %s (of a's %.6g %s, %d vs %d runs)\n",
				wl.Name, m.Name, median(va), median(vb), 100*worsening, 100*m.Bound, v, median(va), m.Unit, len(va), len(vb))
		}
		for side, r := range map[string]*workloadRuns{"a": ra, "b": rb} {
			for _, run := range r.Runs {
				if run.Failed > 0 || !run.Correct {
					fmt.Fprintf(w, "%-16s side %s: %d of %d jobs failed\n", wl.Name, side, run.Failed, run.Attempted)
					code = 1
				}
			}
		}
	}
	return code
}
