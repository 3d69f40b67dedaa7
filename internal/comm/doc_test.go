package comm

import (
	"os"
	"regexp"
	"strconv"
	"testing"
)

// TestDesignQuotesCostModel compares the default α, β and per-operation
// cost DESIGN.md §1 quotes with DefaultCostModel.
func TestDesignQuotesCostModel(t *testing.T) {
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile("α\\s+=\\s+(\\d+)\\s+µs,\\s+β\\s+=\\s+(\\d+)\\s+ns/byte,\\s+(\\d+)\\s+ns\\s+per\\s+local\\s+operation").FindSubmatch(raw)
	if m == nil {
		t.Fatal("DESIGN.md no longer quotes the default cost model")
	}
	num := func(b []byte) float64 {
		n, _ := strconv.Atoi(string(b))
		return float64(n)
	}
	cm := DefaultCostModel()
	if got := num(m[1]) / 1e6; got != cm.Alpha {
		t.Errorf("DESIGN.md says α = %v s, the code %v", got, cm.Alpha)
	}
	if got := num(m[2]) / 1e9; got != cm.Beta {
		t.Errorf("DESIGN.md says β = %v s/byte, the code %v", got, cm.Beta)
	}
	if got := num(m[3]) / 1e9; got != cm.Compute {
		t.Errorf("DESIGN.md says %v s per local operation, the code %v", got, cm.Compute)
	}
}
