package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"kamsta/internal/arena"
	"kamsta/internal/comm"
	"kamsta/internal/graph"
	"kamsta/internal/par"
)

// designQuotes returns what DESIGN.md quotes in pattern's groups.
func designQuotes(t *testing.T, what, pattern string) []string {
	t.Helper()
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(pattern).FindSubmatch(raw)
	if m == nil {
		t.Fatalf("DESIGN.md no longer quotes the %s (pattern %q)", what, pattern)
	}
	out := make([]string, len(m)-1)
	for i, g := range m[1:] {
		out[i] = string(g)
	}
	return out
}

// designNumbers returns the integers DESIGN.md quotes in pattern's groups.
func designNumbers(t *testing.T, what, pattern string) []int {
	t.Helper()
	var out []int
	for _, q := range designQuotes(t, what, pattern) {
		n, err := strconv.Atoi(q)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, n)
	}
	return out
}

// TestDesignQuotesResourceConstants compares the constants DESIGN.md §8
// quotes for the per-rank resources with what the code does: the vertex
// index's window (bound by its entries, and by its lookups, and at FILTER's
// call site), the arena's growth rule and par's grain.
func TestDesignQuotesResourceConstants(t *testing.T) {
	w := designNumbers(t, "index window",
		"at most `(\\d+)·max\\(n, q\\)\\+(\\d+)` for a table of `n`\\s+vertices serving `q` lookups \\(`directWindow`")
	verts := []graph.VID{1, 2, 3, 0}
	for _, lookups := range []int{0, 100} {
		widest := w[0]*max(len(verts), lookups) + w[1]
		for span, want := range map[int]int{widest: widest, widest + 1: 0} {
			verts[3] = verts[0] + graph.VID(span) - 1
			if got := directWindow(verts, lookups); got != want {
				t.Errorf("directWindow over a span of %d for %d vertices and %d lookups = %d, DESIGN.md's %d·max(n, q)+%d says %d",
					span, len(verts), lookups, got, w[0], w[1], want)
			}
		}
	}

	// The same rule at FILTER's call site, label space against endpoint
	// slots: the bitmap slot is grabbed exactly when the rule admits it.
	f := designNumbers(t, "filter window", "at most `(\\d+)s\\+(\\d+)` for the `s`\\s+endpoint slots of the segment \\(`filterSegment`")
	seg := []graph.Edge{{U: 1, V: 2, W: 1}, {U: 2, V: 1, W: 1}, {U: 2, V: 3, W: 2}, {U: 3, V: 2, W: 2}}
	widestSpace := uint64(f[0]*2*len(seg) + f[1])
	for n, want := range map[uint64]bool{widestSpace: true, widestSpace + 1: false} {
		comm.NewWorld(1).Run(func(c *comm.Comm) {
			filterSegment(c, segment{edges: seg}, newDistArray(c, n-1), Options{}.withDefaults())
			if got := cap(arena.GrabAppend[uint64](c.Scratch(), kLabelBits)) > 0; got != want {
				t.Errorf("filterSegment over a label space of %d for %d slots: bitmap %v, DESIGN.md's %ds+%d says %v", n, 2*len(seg), got, f[0], f[1], want)
			}
		})
	}

	g := designNumbers(t, "arena growth", "must grow gets `n\\+n/(\\d+)\\+(\\d+)`")
	a, k := arena.New(), arena.NewKey()
	arena.Grab[byte](a, k, 10)
	if got, want := cap(arena.Grab[byte](a, k, 100)), 100+100/g[0]+g[1]; got != want {
		t.Errorf("a slot grown to 100 has capacity %d, DESIGN.md's n+n/%d+%d says %d", got, g[0], g[1], want)
	}
	if got := cap(arena.Grab[byte](arena.New(), k, 100)); got != 100 {
		t.Errorf("an empty slot sized for 100 has capacity %d, DESIGN.md says exactly n", got)
	}

	grain := designNumbers(t, "par grain", "below 2·(\\d+) iterations \\(the par grain of (\\d+) per worker\\)")
	if grain[0] != grain[1] {
		t.Fatalf("DESIGN.md quotes two par grains, %d and %d", grain[0], grain[1])
	}
	blocks := func(n int) int {
		calls := make(chan struct{}, 2)
		par.NewPool(2).For(n, func(lo, hi int) { calls <- struct{}{} })
		return len(calls)
	}
	if below, at := blocks(2*grain[0]-1), blocks(2*grain[0]); below != 1 || at != 2 {
		t.Errorf("a 2-thread For ran %d block(s) over %d iterations and %d over %d; DESIGN.md's grain %d says 1 and 2",
			below, 2*grain[0]-1, at, 2*grain[0], grain[0])
	}
}

// TestDesignQuotesTuningConstants compares the fixed tuning constants DESIGN.md
// §4 quotes for core with the code (the two dsort numbers of the same bullet
// are TestDesignQuotesSorterConstants's, where the constants are visible).
func TestDesignQuotesTuningConstants(t *testing.T) {
	n := designNumbers(t, "tuning constants",
		"the (\\d+) %\\s+local-edge cut-off for preprocessing \\(`core\\.minLocalEdgeFrac`, §VI-B\\),\\s+the average-degree-(\\d+) sparse stop and the (\\d+)-sample pivot\\s+\\(`core\\.sparseDegree`, `core\\.pivotSamples`")
	if float64(n[0])/100 != minLocalEdgeFrac {
		t.Errorf("DESIGN.md says preprocessing is skipped below %d %% local edges, the code %v", n[0], minLocalEdgeFrac)
	}
	if n[1] != sparseDegree {
		t.Errorf("DESIGN.md says the recursion stops at average degree %d, the code %d", n[1], sparseDegree)
	}
	if n[2] != pivotSamples {
		t.Errorf("DESIGN.md says the pivot is the median of %d samples per PE, the code %d", n[2], pivotSamples)
	}
	q := designQuotes(t, "recursion stops",
		"the recursion's stop\\s+below (\\d+) directed edges per PE and its merge-back of a filtered segment\\s+left with under ([\\d.]+) of that \\(`core\\.minEdgesPerPE`,\\s+`core\\.mergeBackFraction`")
	if q[0] != strconv.Itoa(minEdgesPerPE) {
		t.Errorf("DESIGN.md says the recursion stops below %s edges per PE, the code %d", q[0], minEdgesPerPE)
	}
	if f, err := strconv.ParseFloat(q[1], 64); err != nil || f != mergeBackFraction {
		t.Errorf("DESIGN.md says a segment under %s of the stop merges back, the code %v", q[1], mergeBackFraction)
	}
}

// TestDesignListsSettableOptions holds DESIGN.md §4's list of settable
// core.Options values to the struct's exported fields, a field of another
// package's struct type through that struct's own ("Sort.Seed"), so a knob
// cannot come back without the list saying so.
func TestDesignListsSettableOptions(t *testing.T) {
	code := settable(t, ".", "Options")
	list := designQuotes(t, "settable options", "(?s)settable values: (.*?)\\s+\\(`TestDesignListsSettableOptions`")[0]
	var doc []string
	for _, m := range regexp.MustCompile("`([\\w.]+)`").FindAllStringSubmatch(list, -1) {
		doc = append(doc, m[1])
	}
	slices.Sort(code)
	slices.Sort(doc)
	if !slices.Equal(code, doc) {
		t.Errorf("DESIGN.md §4 lists the settable options %v, core.Options has %v", doc, code)
	}
}

// settable returns the exported fields of the struct type name declared in
// the package in dir, with a field whose type is a struct of a sibling
// package expanded into that struct's settable fields.
func settable(t *testing.T, dir, name string) []string {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			obj := f.Scope.Lookup(name)
			if obj == nil || obj.Kind != ast.Typ {
				continue
			}
			st, ok := obj.Decl.(*ast.TypeSpec).Type.(*ast.StructType)
			if !ok {
				return nil
			}
			for _, fld := range st.Fields.List {
				var sub []string
				if sel, ok := fld.Type.(*ast.SelectorExpr); ok {
					sub = settable(t, "../"+sel.X.(*ast.Ident).Name, sel.Sel.Name)
				}
				for _, id := range fld.Names {
					switch {
					case !id.IsExported():
					case sub == nil:
						out = append(out, id.Name)
					default:
						for _, s := range sub {
							out = append(out, id.Name+"."+s)
						}
					}
				}
			}
		}
	}
	return out
}
