package dsort

import (
	"os"
	"regexp"
	"strconv"
	"testing"
)

// TestDesignQuotesSorterConstants compares the two constants of DESIGN.md
// §8.4's algorithm rule, and their second quote in §4's tuning bullet, with
// the code.
func TestDesignQuotesSorterConstants(t *testing.T) {
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, pattern string
		code          int
	}{
		{"hypercubeBelow", "fewer than (\\d+) elements per PE on average\\s+\\(`hypercubeBelow`", hypercubeBelow},
		{"splitterSamples", "drawing (\\d+)\\s+splitter samples per PE \\(`splitterSamples`\\)", splitterSamples},
		{"hypercubeBelow (§4)", "the (\\d+)-element\\s+sorter switch and \\d+ splitter samples per PE \\(`dsort\\.hypercubeBelow`", hypercubeBelow},
		{"splitterSamples (§4)", "sorter switch and (\\d+) splitter samples per PE \\(`dsort\\.hypercubeBelow`,\\s+`dsort\\.splitterSamples`\\)", splitterSamples},
	} {
		m := regexp.MustCompile(c.pattern).FindSubmatch(raw)
		if m == nil {
			t.Fatalf("DESIGN.md no longer quotes %s (pattern %q)", c.name, c.pattern)
		}
		if got, _ := strconv.Atoi(string(m[1])); got != c.code {
			t.Errorf("DESIGN.md says %s is %d, the code %d", c.name, got, c.code)
		}
	}
}
