package kamsta

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// designBudget is DESIGN.md's size limit in bytes: the document states the
// design and its reasons, and what grows past this belongs in the code's
// comments or in EXPERIMENTS.md.
const designBudget = 32 << 10

// TestDocReferencesResolve holds DESIGN.md to what cites it and to what it
// cites: every "DESIGN §N" or "DESIGN.md §N.M" in the module's Go files,
// README.md, EXPERIMENTS.md and the skill notes (SKILL.md) names a heading
// DESIGN.md has; every `Test…`, `Benchmark…` and `Fuzz…` it names is a function in
// some _test.go file; and it stays within designBudget and names no pull
// request or roadmap item.
func TestDocReferencesResolve(t *testing.T) {
	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > designBudget {
		t.Errorf("DESIGN.md is %d bytes, over its budget of %d", len(raw), designBudget)
	}
	if m := regexp.MustCompile(`\bPR \d+|ROADMAP`).Find(raw); m != nil {
		t.Errorf("DESIGN.md names %q: it describes the design, not its history or plans", m)
	}

	headings := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^#{2,3} (\d+(?:\.\d+)?)\.? `).FindAllSubmatch(raw, -1) {
		headings[string(m[1])] = true
	}
	for i := 1; i <= 11; i++ {
		if !headings[strconv.Itoa(i)] {
			t.Errorf("DESIGN.md has no §%d; code and documents cite §1–§11", i)
		}
	}

	cite := regexp.MustCompile(`DESIGN(?:\.md)?(?:\s|//)+§(\d+(?:\.\d+)?)`)
	check := func(path string) int {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		ms := cite.FindAllSubmatch(src, -1)
		for _, m := range ms {
			if !headings[string(m[1])] {
				t.Errorf("%s cites DESIGN §%s, which DESIGN.md does not have", path, m[1])
			}
		}
		return len(ms)
	}
	skills, _ := filepath.Glob(".*/skills/*/SKILL.md")
	for _, doc := range append([]string{"README.md", "EXPERIMENTS.md"}, skills...) {
		check(doc)
	}
	inGo := 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "benchmark" || strings.HasPrefix(d.Name(), ".")) { // benchmark/ is its own module
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			inGo += check(path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Guard the pattern itself: the code cites DESIGN in some twenty places.
	if inGo < 10 {
		t.Fatalf("found %d DESIGN § citations in Go files; expected at least 10", inGo)
	}

	tests := map[string]bool{}
	for _, name := range testFuncs(t, "./...", "Test|Benchmark|Fuzz") {
		tests[name] = true
	}
	named := regexp.MustCompile("`((?:Test|Benchmark|Fuzz)\\w*)`").FindAllSubmatch(raw, -1)
	for _, m := range named {
		if !tests[string(m[1])] {
			t.Errorf("DESIGN.md names `%s`, which no _test.go file defines", m[1])
		}
	}
	if len(named) < 20 {
		t.Fatalf("DESIGN.md names %d tests; expected at least 20", len(named))
	}
}

// TestDesignQuotesProbeStallTimeout compares the post-fault probe's stall
// timeout DESIGN.md §9.4 quotes with probeStallTimeout.
func TestDesignQuotesProbeStallTimeout(t *testing.T) {
	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile("(\\d+)\\s+s\\s+stall\\s+timeout\\s+\\(`probeStallTimeout`\\)").FindSubmatch(raw)
	if m == nil {
		t.Fatal("DESIGN.md no longer quotes probeStallTimeout")
	}
	if got, _ := strconv.Atoi(string(m[1])); time.Duration(got)*time.Second != probeStallTimeout {
		t.Errorf("DESIGN.md says the probe stalls out after %d s, the code after %v", got, probeStallTimeout)
	}
}
