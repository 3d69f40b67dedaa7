package serve

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// tableSource parses outcome.go and returns, per table row, the source text
// of its sentinel expression ("" where the row has none) — the one thing the
// tables' values cannot say about themselves.
func tableSource(t *testing.T, table string) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "outcome.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	ast.Inspect(f, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok || vs.Names[0].Name != table {
			return true
		}
		for _, row := range vs.Values[0].(*ast.CompositeLit).Elts {
			elts := row.(*ast.CompositeLit).Elts
			sentinel := ""
			if _, keyed := elts[0].(*ast.KeyValueExpr); !keyed {
				sentinel = types.ExprString(elts[0])
			}
			for _, e := range elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok && kv.Key.(*ast.Ident).Name == "sentinel" {
					sentinel = types.ExprString(kv.Value)
				}
			}
			rows = append(rows, sentinel)
		}
		return false
	})
	return rows
}

// TestDesignQuotesOutcomeTables parses the two tables of DESIGN.md §11.4 and
// compares them, row by row and in order, with the tables in outcome.go, so
// the document cannot drift from the vocabulary it describes.
func TestDesignQuotesOutcomeTables(t *testing.T) {
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	quoted := regexp.MustCompile("(?m)^\\| `([a-z_]+)` \\| (.+?) \\| (\\d+) \\| (.+?) \\|$").FindAllStringSubmatch(string(raw), -1)
	var want [][]string
	who := map[RejectClass]string{
		Backpressure: "client, after `Retry-After`", Shed: "nobody: shed", Refused: "nobody",
	}
	for i, sentinel := range tableSource(t, "rejections") {
		r := rejections[i]
		want = append(want, []string{r.Code, "`" + sentinel + "`", strconv.Itoa(r.Status), who[r.Class]})
	}
	for i, sentinel := range tableSource(t, "outcomes") {
		o := outcomes[i]
		matches, retries := "`"+sentinel+"`", "nobody"
		switch {
		case i == 0:
			matches, retries = "`nil`", "—"
		case o.fault:
			matches, retries = "`*kamsta.JobError`", "server (`Config.Retry`)"
		case i == len(outcomes)-1:
			matches = "anything else"
		}
		want = append(want, []string{o.code, matches, "200", retries})
	}
	if len(quoted) != len(want) {
		t.Fatalf("DESIGN.md tabulates %d endings, the code has %d", len(quoted), len(want))
	}
	for i, w := range want {
		if got := quoted[i][1:]; fmt.Sprint(got) != fmt.Sprint(w) {
			t.Errorf("DESIGN.md row %d is %q, the code says %q", i, got, w)
		}
	}
}

// TestCodesSpelledOnce pins "one definition each": every rejection and
// outcome code appears as a string literal once per table that has it, in
// outcome.go, and nowhere else in the non-test Go of internal/serve/**.
func TestCodesSpelledOnce(t *testing.T) {
	// Words that are also, legitimately, something else.
	elsewhere := map[string]string{
		"ok":       "http.go",  // the /healthz body
		"error":    "http.go",  // the JSON key of an error body
		"draining": "sched.go", // Stats.State, the server lifecycle
		"brownout": "flags.go", // the name of the -brownout flag
	}
	rows := map[string]int{}
	for _, r := range rejections {
		rows[r.Code]++
	}
	for _, o := range outcomes {
		rows[o.code]++
	}
	files, _ := filepath.Glob("*.go")
	more, _ := filepath.Glob("loadgen/*.go")
	spelled := map[string]map[string]int{}
	for _, name := range append(files, more...) {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil && rows[s] > 0 {
					if spelled[s] == nil {
						spelled[s] = map[string]int{}
					}
					spelled[s][name]++
				}
			}
			return true
		})
	}
	for code, n := range rows {
		for name, got := range spelled[code] {
			switch {
			case name == "outcome.go" && got != n:
				t.Errorf("%q is spelled %d times in outcome.go, want once per table row (%d)", code, got, n)
			case name != "outcome.go" && elsewhere[code] != name:
				t.Errorf("%q is spelled again in %s: look it up in the table", code, name)
			}
		}
		if spelled[code]["outcome.go"] == 0 {
			t.Errorf("%q is not spelled in outcome.go", code)
		}
	}
}

// TestDesignQuotesRetryBackoff checks the two backoff constants DESIGN.md
// §11.3 quotes against retry.go.
func TestDesignQuotesRetryBackoff(t *testing.T) {
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]time.Duration{
		"retryBackoffBase": retryBackoffBase, "retryBackoffMax": retryBackoffMax,
	} {
		m := regexp.MustCompile("`" + name + "` = (\\w+)").FindSubmatch(raw)
		if m == nil {
			t.Errorf("DESIGN.md no longer quotes %s", name)
			continue
		}
		if got, err := time.ParseDuration(string(m[1])); err != nil || got != want {
			t.Errorf("DESIGN.md quotes %s = %s, the code says %v", name, m[1], want)
		}
	}
}
