package bench

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"kamsta/internal/comm"
	"kamsta/internal/gen"
	"kamsta/internal/graphio"
)

// tinyScale keeps harness tests fast.
func tinyScale() Scale {
	return Scale{
		Ps:             []int{2, 4},
		VPerPE:         1 << 6,
		EPerPE:         1 << 9,
		DenseEPerPE:    1 << 10,
		RealWorldScale: 1 << 17,
		Seed:           1,
	}
}

// update rewrites testdata/exhibits.golden from this run. It is test
// tooling (go test ./internal/bench -run TestExhibitsPinned -update); no
// command has the flag. A diff of the golden file is a modeled column that
// moved, and belongs in the PR that moved it, alone.
var update = flag.Bool("update", false, "rewrite testdata/exhibits.golden from this run")

const exhibitsGolden = "testdata/exhibits.golden"

// cellGap separates two cells of a tabwriter row (padding 2, so never less
// than two spaces; a cell itself holds single spaces at most).
var cellGap = regexp.MustCompile(" {2,}")

// writeGraphFile writes a small GNM instance as g.kg in a fresh temp dir.
func writeGraphFile(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.kg")
	spec := gen.Spec{Family: gen.GNM, N: 200, M: 800, Seed: 2}
	if err := graphio.WriteFile(path, graphio.FormatKamsta, collectEdges(spec, 4)); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestExhibitsPinned holds ROADMAP's behaviour contract — every modeled
// exhibit column byte-identical — under tier-1: all eight experiments plus
// a -input run at tinyScale(), every table minus its wall_s columns,
// compared byte for byte with the committed golden file.
func TestExhibitsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("harness sweep is slow")
	}
	var got []string
	for _, id := range ExperimentNames() {
		var buf bytes.Buffer
		if err := RunExperiment(context.Background(), id, &buf, tinyScale()); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		got = append(got, "== "+id)
		got = append(got, modeledColumns(t, id, buf.String())...)
	}
	path := writeGraphFile(t)
	var buf bytes.Buffer
	if err := RunFile(context.Background(), &buf, path, "auto", nil, tinyScale()); err != nil {
		t.Fatal(err)
	}
	got = append(got, "== input")
	got = append(got, modeledColumns(t, "input", strings.ReplaceAll(buf.String(), filepath.Dir(path), "$TMP"))...)

	if *update {
		if err := os.WriteFile(exhibitsGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(exhibitsGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	id := ""
	for i := 0; i < len(want) || i < len(got); i++ {
		w, g := "<end of golden file>", "<end of output>"
		if i < len(want) {
			w = want[i]
		}
		if i < len(got) {
			g = got[i]
		}
		if w != g {
			t.Fatalf("exhibit %s, %s line %d:\n  want %s\n  got  %s", id, exhibitsGolden, i+1, w, g)
		}
		if strings.HasPrefix(g, "== ") {
			id = g[3:]
		}
	}
}

// modeledColumns splits an exhibit's output into lines and drops, from
// every table, each column whose header is wall_s; the surviving cells are
// re-joined by two spaces, since dropping a column moves the alignment
// anyway. A table starts at the first line after a '#' title and ends at a
// blank line or the next title; a row whose cell count differs from its
// header's would make the drop ambiguous and fails the test.
func modeledColumns(t *testing.T, id, out string) []string {
	t.Helper()
	var lines []string
	var header []string
	for _, ln := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if ln == "" || strings.HasPrefix(ln, "#") {
			header = nil
			lines = append(lines, ln)
			continue
		}
		row := cellGap.Split(ln, -1)
		if header == nil {
			header = row
		}
		if len(row) != len(header) {
			t.Fatalf("%s: row has %d cells under a %d-column header:\n%s", id, len(row), len(header), ln)
		}
		var kept []string
		for i, c := range row {
			if header[i] != "wall_s" {
				kept = append(kept, c)
			}
		}
		lines = append(lines, strings.Join(kept, "  "))
	}
	return lines
}

func TestRunFileBenchmarksAGraphFile(t *testing.T) {
	path := writeGraphFile(t)
	s := tinyScale()
	s.Ps = []int{2}
	var buf bytes.Buffer
	if err := RunFile(context.Background(), &buf, path, "auto", nil, s); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"load_s", "boruvka", "sparseMatrix"} {
		if !strings.Contains(out, want) {
			t.Fatalf("RunFile output missing %q:\n%s", want, out)
		}
	}
	if err := RunFile(context.Background(), &buf, filepath.Join(t.TempDir(), "missing.kg"), "auto", nil, s); err == nil {
		t.Fatal("RunFile on a missing file should error")
	}
}

func TestFig2ShowsTwoLevelAdvantage(t *testing.T) {
	// The headline of Fig. 2: at the largest p, the two-level exchange must
	// beat the one-level on the contraction phase.
	s := tinyScale()
	s.Ps = []int{32}
	var buf bytes.Buffer
	Fig2(context.Background(), &buf, s)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var one, two float64
	for _, ln := range lines {
		f := strings.Fields(ln)
		if len(f) >= 3 && f[1] == "one-level" {
			one = parseF(t, f[2])
		}
		if len(f) >= 3 && f[1] == "two-level" {
			two = parseF(t, f[2])
		}
	}
	if one == 0 || two == 0 {
		t.Fatalf("could not parse Fig2 output:\n%s", buf.String())
	}
	if two >= one {
		t.Fatalf("two-level (%.3e) should beat one-level (%.3e) at p=32", two, one)
	}
}

func TestWeakSpecScalesWithP(t *testing.T) {
	s := DefaultScale()
	a := weakSpec(gen.GNM, s, 4)
	b := weakSpec(gen.GNM, s, 8)
	if b.N != 2*a.N || b.M != 2*a.M {
		t.Fatalf("weak scaling should double the instance with p: %+v vs %+v", a, b)
	}
}

func TestAlgConfigKnownSeries(t *testing.T) {
	for _, name := range []string{"boruvka", "filterBoruvka", "boruvka-nopre", "filterBoruvka-nopre", "MND-MST", "sparseMatrix"} {
		cfg := algConfig(name, 2, DefaultScale())
		if cfg.Algorithm == "" {
			t.Fatalf("%s: no algorithm set", name)
		}
		if cfg.Threads != 2 {
			t.Fatalf("%s: threads not propagated", name)
		}
	}
}

func TestAlgConfigUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown series should panic")
		}
	}()
	algConfig("nope", 1, DefaultScale())
}

func TestExperimentNamesComplete(t *testing.T) {
	names := ExperimentNames()
	want := []string{"fig2", "fig3", "fig4", "fig5", "fig6", "shared", "table1", "table1file"}
	if len(names) != len(want) {
		t.Fatalf("experiments: %v want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("experiments: %v want %v", names, want)
		}
	}
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	var v float64
	if _, err := fmt.Sscan(s, &v); err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

// TestShapeHeadlines asserts the qualitative claims of the paper's figures
// in the paper's operating regime. The laptop-sized instances here carry
// ~2^11 times fewer edges per PE than the paper's (2^10 vs 2^21), which
// would leave the modeled time latency-dominated and invert Fig. 3's
// ordering — a regime effect, not an algorithmic one. Scaling the per-edge
// compute and per-byte costs by that factor restores the paper's
// compute/volume-dominated regime, in which the figure's claims must hold:
// our algorithms beat both competitors on local graphs (Fig. 3) and
// preprocessing pays off on dense local graphs (Fig. 4). EXPERIMENTS.md
// reports both regimes.
func TestShapeHeadlines(t *testing.T) {
	if testing.Short() {
		t.Skip("shape sweep is slow")
	}
	s := tinyScale()
	p := 16
	// Amplify only the per-op compute cost: one modeled edge operation
	// stands for the ~2^7 operations the paper-scale instance would do.
	// Beta stays at default, which undercharges the competitors' data
	// volume if anything — a conservative direction for our claims.
	// Instances must be large enough to be in the paper's locality regime:
	// an RGG only develops per-PE locality once its cell grid is much
	// finer than the PE count, and sparseMatrix's Θ(n)-per-round term only
	// bites once n is large.
	regime := comm.CostModel{Alpha: 10e-6, Beta: 1e-9, Compute: 2.5e-7}
	s.BaseCaseCap = 256
	mp := newMachinePool(context.Background(), s)
	defer mp.Close()

	modeled := func(series string, threads int, f gen.Family, n, m uint64) float64 {
		spec := gen.Spec{Family: f, N: n, M: m, Seed: 1}
		cfg := algConfig(series, threads, s)
		cfg.PEs = p
		cfg.Cost = regime
		return mp.measure(spec, cfg).ModeledSeconds
	}

	// Fig. 3 headline on the grid family: locality exploitation wins big.
	ours := modeled("boruvka", 1, gen.Grid2D, 1<<14, 0)
	sparse := modeled("sparseMatrix", 1, gen.Grid2D, 1<<14, 0)
	if ours*2 > sparse {
		t.Errorf("fig3 shape: boruvka (%.3e) should beat sparseMatrix (%.3e) by >2x on 2D-GRID", ours, sparse)
	}
	// MND-MST is genuinely strong on grids at small p (the paper's Fig. 3
	// starts at 2^9 cores); require rough parity here and a clear win on
	// the locality-free family, where MND's merge hierarchy hauls the
	// whole graph onto leaders.
	// At p=16 MND's hierarchy is only two shallow merge levels and the
	// grid contracts almost entirely locally, so MND can genuinely lead;
	// its leader bottleneck only shows at the paper's core counts (≥2^9).
	mnd := modeled("MND-MST", 1, gen.Grid2D, 1<<14, 0)
	if ours > mnd*3 {
		t.Errorf("fig3 shape: boruvka (%.3e) should be within 3x of MND-MST (%.3e) on 2D-GRID at small p", ours, mnd)
	}
	oursGNM := modeled("boruvka", 1, gen.GNM, 1<<11, 1<<14)
	mndGNM := modeled("MND-MST", 1, gen.GNM, 1<<11, 1<<14)
	if oursGNM >= mndGNM {
		t.Errorf("fig3 shape: boruvka (%.3e) should beat MND-MST (%.3e) on GNM", oursGNM, mndGNM)
	}

	// Fig. 4 headline: preprocessing on vs off on a dense local graph in
	// the locality regime (cell grid ≫ PE count).
	on := modeled("boruvka", 1, gen.RGG2D, 1<<14, 1<<17)
	off := modeled("boruvka-nopre", 1, gen.RGG2D, 1<<14, 1<<17)
	if on >= off {
		t.Errorf("fig4 shape: preprocessing on (%.3e) should beat off (%.3e) on dense 2D-RGG", on, off)
	}
}
