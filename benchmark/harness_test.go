package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/parser"
	"go/token"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"kamsta"
)

// layersBin is the layers program, built once for the traced smoke runs.
var layersBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "benchmark-layers")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	layersBin = filepath.Join(dir, "layers")
	if out, err := exec.Command("go", "build", "-o", layersBin, "./layers").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building ./layers: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	return out
}

// The manifest and the harness declare the same workloads and metrics, and
// every name and unit is within the manifest's limits.
func TestManifestMatchesHarness(t *testing.T) {
	var mf manifest
	if err := readJSON("../BENCHMARK.json", &mf); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
	}
	if len(mf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the harness", len(mf.Workloads), len(workloads))
	}
	for i, w := range mf.Workloads {
		check(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 {
			t.Errorf("workload %d: manifest %q, harness %q (or the whys differ, or exceed 200 characters)", i, w.Name, workloads[i].name)
		}
	}
	var e2e []metricDef
	for _, m := range mf.EndToEnd {
		e2e = append(e2e, m.metricDef)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end-to-end metrics differ:\nmanifest %v\nharness  %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(mf.PerLayer, perLayer) {
		t.Errorf("per-layer metrics differ:\nmanifest %v\nharness  %v", mf.PerLayer, perLayer)
	}
	for _, d := range append(e2e, mf.PerLayer...) {
		check(d.Name)
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: unit %q or direction %q is malformed", d.Name, d.Unit, d.Better)
		}
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
}

// A smoke-scale run of every workload, untraced and traced: the metrics
// emitted are the metrics declared, no job fails, the ledger sums, and the
// TCP worker and the HTTP server shut down without leaking goroutines.
func TestSmokeRuns(t *testing.T) {
	before := runtime.NumGoroutine()
	outDir := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(runConfig{workload: w.name, seed: 7, seconds: 0.15, trace: trace,
				scale: "smoke", layersBin: layersBin, outDir: outDir})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 || res.exitCode() != 0 {
				t.Errorf("%s trace=%v: %d of %d jobs failed", w.name, trace, res.Failed, res.Attempted)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			var got []string
			for name := range res.Metrics {
				got = append(got, name)
			}
			sort.Strings(got)
			wantNames := names(want)
			sort.Strings(wantNames)
			if !reflect.DeepEqual(got, wantNames) {
				t.Errorf("%s trace=%v: emitted %v, declared %v", w.name, trace, got, wantNames)
			}
			v := func(name string) float64 { return res.Metrics[name].Value }
			if !trace {
				for _, d := range endToEnd {
					if v(d.Name) <= 0 {
						t.Errorf("%s: %s = %v, want positive", w.name, d.Name, v(d.Name))
					}
				}
				continue
			}
			if _, err := os.Stat(filepath.Join(outDir, "trace-"+w.name+".json")); err != nil {
				t.Errorf("%s: no trace file: %v", w.name, err)
			}
			if v("obs.trace_overhead_ratio") <= 0 || v("graph.edge_bytes") <= 0 || v("comm.barrier_us") <= 0 {
				t.Errorf("%s: a layer metric every workload has reads 0", w.name)
			}
			if w.serve {
				if v("serve.submit_s_p50") <= 0 || v("serve.run_s_mean") <= 0 {
					t.Errorf("serve layer metrics read 0")
				}
				continue
			}
			phases := 0.0
			for _, name := range phaseMetrics {
				phases += v(name)
			}
			if phases <= 0 || phases > v("kamsta.algorithm_s")*1.001 {
				t.Errorf("%s: core phases sum to %v, kamsta.algorithm_s is %v", w.name, phases, v("kamsta.algorithm_s"))
			}
			if v("comm.supersteps") <= 0 || v("comm.collectives") <= 0 {
				t.Errorf("%s: comm counters read 0", w.name)
			}
			if w.tcpTwin && (v("transport.tcp.frames") <= 0 || v("transport.tcp.tax") <= 0) {
				t.Errorf("%s: transport.tcp metrics read 0", w.name)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before, %d after:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// bruteForce finds the minimum spanning forest by trying every edge subset:
// among the acyclic ones of the largest size, the lightest. Connectivity is
// by repeated relabelling, sharing nothing with the oracle's union-find.
func bruteForce(n int, edges []kamsta.InputEdge) reference {
	best := reference{edges: -1}
	for mask := 0; mask < 1<<len(edges); mask++ {
		label := make([]int, n+1)
		for i := range label {
			label[i] = i
		}
		cand := reference{}
		acyclic := true
		for i, e := range edges {
			if mask&(1<<i) == 0 {
				continue
			}
			a, b := label[e.U], label[e.V]
			if a == b {
				acyclic = false
				break
			}
			for j := range label {
				if label[j] == a {
					label[j] = b
				}
			}
			cand.weight += uint64(e.W)
			cand.edges++
		}
		if acyclic && (cand.edges > best.edges || cand.edges == best.edges && cand.weight < best.weight) {
			best = cand
		}
	}
	return best
}

func TestOracleAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(5)
		edges := make([]kamsta.InputEdge, rng.Intn(10))
		for i := range edges {
			u := 1 + rng.Intn(n)
			v := 1 + (u+rng.Intn(n-1))%n // never u
			edges[i] = kamsta.InputEdge{U: uint64(u), V: uint64(v), W: uint32(1 + rng.Intn(5))}
		}
		want := bruteForce(n, edges)
		got, err := kruskal(edges)
		if err != nil || got != want {
			t.Fatalf("trial %d: kruskal %v (%v), brute force %v on %v", trial, got, err, want, edges)
		}
		// forestWeight accepts exactly the acyclic subsets.
		for mask := 0; mask < 1<<len(edges); mask++ {
			var sub []kamsta.InputEdge
			for i, e := range edges {
				if mask&(1<<i) != 0 {
					sub = append(sub, e)
				}
			}
			_, err := forestWeight(sub)
			if acyclic := bruteForce(n, sub).edges == len(sub); acyclic != (err == nil) {
				t.Fatalf("trial %d: forestWeight(%v) = %v, acyclic %v", trial, sub, err, acyclic)
			}
		}
	}
}

// The checker counts a wrong weight, a cycle and an HTTP 429 as failed jobs,
// and a run with a failed job exits non-zero.
func TestCheckerCountsFailures(t *testing.T) {
	path := []kamsta.InputEdge{{U: 1, V: 2, W: 3}, {U: 2, V: 3, W: 4}, {U: 3, V: 4, W: 5}}
	ref := reference{weight: 12, edges: 3}
	good := &kamsta.Report{TotalWeight: 12, NumEdges: 3, MSTEdges: path}
	if err := checkReport(good, ref); err != nil {
		t.Fatalf("a correct report fails: %v", err)
	}
	heavier := *good
	heavier.TotalWeight++
	// Same count and weight as the reference, but 1-2-3-1 is a cycle.
	cycle := &kamsta.Report{TotalWeight: 12, NumEdges: 3,
		MSTEdges: []kamsta.InputEdge{{U: 1, V: 2, W: 3}, {U: 2, V: 3, W: 4}, {U: 1, V: 3, W: 5}}}
	samples := []sample{{seconds: 1, edges: 6}}
	for name, rep := range map[string]*kamsta.Report{"weight+1": &heavier, "cycle": cycle} {
		err := checkReport(rep, ref)
		if err == nil {
			t.Errorf("%s: the checker accepts it", name)
		}
		samples = append(samples, sample{seconds: 1, err: err})
	}

	refuse := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprintln(w, `{"error":"queue full","code":"queue_full"}`)
	}))
	defer refuse.Close()
	inst := &serveInst{base: refuse.URL, client: []*http.Client{refuse.Client()},
		jobs: [][]serveJob{{{body: []byte(`{}`)}}}, next: []int{0}}
	rejected := inst.job(0, armPlain, 1, nil)
	if rejected.err == nil || !strings.Contains(rejected.err.Error(), "429") {
		t.Errorf("a 429 is not a failed job: %v", rejected.err)
	}
	samples = append(samples, rejected)

	tl := tallySamples(samples)
	if len(tl.errs) != 3 || len(tl.secs[armPlain]) != 1 || tl.edges != 6 {
		t.Errorf("tally counts %d failed, %d correct, %d edges; want 3, 1, 6", len(tl.errs), len(tl.secs[armPlain]), tl.edges)
	}
	res, err := newRunResult(endToEnd, map[string]float64{"job_s_p50": 1}, len(samples), len(tl.errs))
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 3 || res.Attempted != 4 || res.exitCode() == 0 {
		t.Errorf("a run with failed jobs reads %+v, exit code %d", res, res.exitCode())
	}
	if _, err := newRunResult(endToEnd, map[string]float64{"undeclared": 1}, 1, 0); err == nil {
		t.Error("an undeclared metric is accepted")
	}
}

// The end-to-end runner compiles against the public API, core.DefaultOptions
// and serve.New/Handler only; everything else it imports is the standard
// library. The layer microcalls live in ./layers, a program of their own.
func TestEndToEndImports(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	seen := map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, imp := range f.Imports {
				path := strings.Trim(imp.Path.Value, `"`)
				first, _, _ := strings.Cut(path, "/")
				std := !strings.Contains(first, ".") && first != "kamsta"
				if !std && !seen[path] {
					seen[path] = true
					got = append(got, path)
				}
			}
		}
	}
	sort.Strings(got)
	want := []string{"kamsta", "kamsta/internal/core", "kamsta/internal/serve"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("the end-to-end runner imports %v, want exactly %v", got, want)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestVerdict(t *testing.T) {
	tight := []float64{100, 101, 99, 100, 100}
	wide := []float64{80, 120, 100, 90, 110}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"same", tight, tight, "lower", "ok"},
		{"slower beyond the bound", tight, []float64{120, 121, 119, 120, 120}, "lower", "worse"},
		{"slower within the bound", tight, []float64{105, 106, 104, 105, 105}, "lower", "ok"},
		{"faster", tight, []float64{50, 51, 49, 50, 50}, "lower", "ok"},
		{"throughput down", tight, []float64{80, 81, 79, 80, 80}, "higher", "worse"},
		{"throughput up", tight, []float64{120, 121, 119, 120, 120}, "higher", "ok"},
		{"noisy and overlapping", wide, wide, "lower", "unresolved"},
		{"noisy but every run better", wide, []float64{50, 60, 70, 55, 65}, "lower", "ok"},
		{"noisy but every run worse", wide, []float64{150, 160, 170, 155, 165}, "lower", "worse"},
	} {
		if _, got := verdict(c.a, c.b, c.better, 0.10); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// compare exits non-zero exactly when a metric got worse or a job failed.
func TestCompareExitCode(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, jobS float64, failed int) string {
		rf := resultFile{Schema: resultSchema, Workloads: map[string]*workloadRuns{}}
		for _, w := range workloads {
			runs := &workloadRuns{}
			for i := 0; i < 5; i++ {
				values := map[string]float64{}
				for _, d := range endToEnd {
					values[d.Name] = 1 + float64(i)/1000
				}
				values["job_s_p50"] = jobS + float64(i)/1000
				res, err := newRunResult(endToEnd, values, 10, failed)
				if err != nil {
					t.Fatal(err)
				}
				runs.Runs = append(runs.Runs, res)
			}
			rf.Workloads[w.name] = runs
		}
		b, err := json.Marshal(rf)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, slow, broken := write("a.json", 1, 0), write("b.json", 2, 0), write("c.json", 1, 1)
	for _, c := range []struct {
		a, b string
		want int
		has  string
	}{
		{base, base, 0, "ok"},
		{base, slow, 1, "worse"},
		{slow, base, 0, "ok"},
		{base, broken, 1, "jobs failed"},
	} {
		var out bytes.Buffer
		code := compareMain([]string{"-manifest", "../BENCHMARK.json", c.a, c.b}, &out)
		if code != c.want || !strings.Contains(out.String(), c.has) {
			t.Errorf("compare %s %s: exit %d, want %d with %q in\n%s",
				filepath.Base(c.a), filepath.Base(c.b), code, c.want, c.has, out.String())
		}
	}
	if code := compareMain([]string{base}, &bytes.Buffer{}); code != 2 {
		t.Errorf("compare with one file exits %d, want 2", code)
	}
	if err := readJSON(filepath.Join(dir, "missing.json"), &resultFile{}); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a missing file reads %v", err)
	}
}
