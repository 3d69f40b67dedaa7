package localmst

import (
	"os"
	"regexp"
	"strconv"
	"testing"
)

// TestDesignQuotesReduceThreshold compares the survivor count above which a
// round removes parallel edges, as DESIGN.md §8.3 quotes it, with the code.
func TestDesignQuotesReduceThreshold(t *testing.T) {
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile("above\\s+(\\d+)\\s+survivors\\s+\\(`reduceAbove`\\)").FindSubmatch(raw)
	if m == nil {
		t.Fatal("DESIGN.md no longer quotes reduceAbove")
	}
	if got, _ := strconv.Atoi(string(m[1])); got != reduceAbove {
		t.Errorf("DESIGN.md says a round reduces above %d survivors, the code %d", got, reduceAbove)
	}
}
