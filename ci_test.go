package kamsta

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// testFuncs lists the top-level Test/Fuzz/Example functions (what -run
// selects from) or the Benchmark functions (what -bench selects from) of
// the packages a `go test` package argument names: ".", "./dir", "./dir/...".
func testFuncs(t *testing.T, pkgArg, prefixes string) []string {
	t.Helper()
	decl := regexp.MustCompile(`(?m)^func ((?:` + prefixes + `)\w*)\(`)
	dir, recursive := strings.CutSuffix(pkgArg, "...")
	dir = filepath.Clean(dir)
	var names []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != dir && (!recursive || d.Name() == "benchmark") { // benchmark/ is its own module
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range decl.FindAllSubmatch(src, -1) {
			names = append(names, string(m[1]))
		}
		return err
	})
	if err != nil {
		t.Fatalf("%s: %v", pkgArg, err)
	}
	return names
}

// TestCISelectsExistingTests reads every `go test` command of the CI
// workflow and requires each alternative of its -run / -bench pattern to
// match a test in the packages the command names. The gating lanes pick
// some forty tests by name; without this a rename leaves a lane green and
// empty.
func TestCISelectsExistingTests(t *testing.T) {
	raw, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	// One logical command per line: fold shell continuations, then cut at
	// `go test` and take single-quoted words whole.
	text := regexp.MustCompile(`\\\n\s*`).ReplaceAllString(string(raw), " ")
	word := regexp.MustCompile(`'[^']*'|\S+`)
	commands, selected := 0, 0
	for _, line := range strings.Split(text, "\n") {
		_, cmd, ok := strings.Cut(line, "go test ")
		if !ok || strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		commands++
		var run, bench string
		var pkgs []string
		words := word.FindAllString(cmd, -1)
		for i := 0; i < len(words); i++ {
			switch w := words[i]; {
			case w == "-run" || w == "-bench":
				i++
				if pat := strings.Trim(words[i], "'"); w == "-run" {
					run = pat
				} else {
					bench = pat
				}
			case w == "." || strings.HasPrefix(w, "./"):
				pkgs = append(pkgs, w)
			}
		}
		if bench != "" {
			run = "" // `-run xxx -bench …` selects no test on purpose
		}
		for _, sel := range []struct{ flag, pattern, prefixes string }{
			{"-run", run, "Test|Fuzz|Example"}, {"-bench", bench, "Benchmark"},
		} {
			if sel.pattern == "" {
				continue
			}
			if len(pkgs) == 0 {
				t.Errorf("%q: no package argument understood", cmd)
				continue
			}
			var names []string
			for _, p := range pkgs {
				names = append(names, testFuncs(t, p, sel.prefixes)...)
			}
			for _, alt := range strings.Split(sel.pattern, "|") {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("%q: %s alternative %q: %v", cmd, sel.flag, alt, err)
					continue
				}
				selected++
				if !anyMatch(re, names) {
					t.Errorf("ci.yml: %s alternative %q matches no test in %v\n  in: go test %s", sel.flag, alt, pkgs, cmd)
				}
			}
		}
	}
	// The workflow as it stands: guard the parser itself against matching
	// nothing (a reformatted ci.yml would otherwise pass vacuously).
	if commands < 10 || selected < 40 {
		t.Fatalf("understood %d `go test` commands and %d name alternatives in ci.yml; expected at least 10 and 40", commands, selected)
	}
}

func anyMatch(re *regexp.Regexp, names []string) bool {
	for _, n := range names {
		if re.MatchString(n) {
			return true
		}
	}
	return false
}
