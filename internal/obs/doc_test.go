package obs

import (
	"os"
	"regexp"
	"strconv"
	"testing"
)

// TestDesignQuotesRingCap compares the span ring capacity DESIGN.md §10.2
// quotes with DefaultRingCap.
func TestDesignQuotesRingCap(t *testing.T) {
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile("`obs\\.DefaultRingCap`,\\s+2\\^(\\d+)\\s+spans").FindSubmatch(raw)
	if m == nil {
		t.Fatal("DESIGN.md no longer quotes obs.DefaultRingCap")
	}
	if got, _ := strconv.Atoi(string(m[1])); 1<<got != DefaultRingCap {
		t.Errorf("DESIGN.md says DefaultRingCap is 2^%d, the code %d", got, DefaultRingCap)
	}
}
