package bench

import (
	"os"
	"regexp"
	"strconv"
	"testing"
)

// TestDesignQuotesHarnessCounts compares the counts DESIGN.md §7.8 quotes
// for what the harness serves with the code.
func TestDesignQuotesHarnessCounts(t *testing.T) {
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, pattern string
		code          int
	}{
		{"exhibits", "the (\\d+) exhibits of `mstbench\\s+-experiment`", len(Experiments())},
		{"golden cases", "the (\\d+) golden cases of `mstbench -golden`", len(GoldenCases())},
	} {
		m := regexp.MustCompile(c.pattern).FindSubmatch(raw)
		if m == nil {
			t.Fatalf("DESIGN.md no longer quotes the number of %s (pattern %q)", c.name, c.pattern)
		}
		if got, _ := strconv.Atoi(string(m[1])); got != c.code {
			t.Errorf("DESIGN.md says %d %s, the code has %d", got, c.name, c.code)
		}
	}
}
