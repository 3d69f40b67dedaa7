package graph

import (
	"os"
	"regexp"
	"strconv"
	"testing"
	"unsafe"

	"kamsta/internal/sizeof"
)

// TestDesignQuotesEdgeSizes compares the modeled and in-memory edge sizes
// DESIGN.md §1 quotes with what the clock and the layout use.
func TestDesignQuotesEdgeSizes(t *testing.T) {
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile("an\\s+edge\\s+costs\\s+(\\d+)\\s+bytes,\\s+the\\s+paper's\\s+record,\\s+although\\s+`graph\\.Edge`\\s+occupies\\s+(\\d+)").FindSubmatch(raw)
	if m == nil {
		t.Fatal("DESIGN.md no longer quotes the edge sizes")
	}
	if got, _ := strconv.Atoi(string(m[1])); got != sizeof.Of[Edge]() {
		t.Errorf("DESIGN.md says an edge costs %d bytes, sizeof.Of says %d", got, sizeof.Of[Edge]())
	}
	if got, _ := strconv.Atoi(string(m[2])); uintptr(got) != unsafe.Sizeof(Edge{}) {
		t.Errorf("DESIGN.md says graph.Edge occupies %d bytes, unsafe.Sizeof says %d", got, unsafe.Sizeof(Edge{}))
	}
}
