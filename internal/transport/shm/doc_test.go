package shm

import (
	"os"
	"regexp"
	"strconv"
	"testing"
)

// TestDesignQuotesBarrierConstants compares the barrier's fan-in, spin and
// yield bounds DESIGN.md §2.2 quotes with the code.
func TestDesignQuotesBarrierConstants(t *testing.T) {
	raw, err := os.ReadFile("../../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, pattern string
		code          int
	}{
		{"barrierFan", "fan-in-(\\d+)\\s+tree\\s+\\(`barrierFan`\\)", barrierFan},
		{"barrierSpin", "spins\\s+at\\s+most\\s+(\\d+)\\s+times\\s+\\(`barrierSpin`", barrierSpin},
		{"barrierYield", "yields\\s+at\\s+most\\s+(\\d+)\\s+times\\s+\\(`barrierYield`\\)", barrierYield},
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
