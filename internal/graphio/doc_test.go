package graphio

import (
	"os"
	"regexp"
	"strconv"
	"testing"
)

// TestDesignQuotesKamstaLayout compares the format version, header size and
// record size DESIGN.md §6.1 quotes with the code.
func TestDesignQuotesKamstaLayout(t *testing.T) {
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sec := regexp.MustCompile(`(?s)### 6\.1 .*?\n### 6\.2 `).Find(raw)
	if sec == nil {
		t.Fatal("DESIGN.md has no §6.1 followed by §6.2")
	}
	for _, c := range []struct {
		name, pattern string
		code          int
	}{
		{"version", `version u32 = (\d+)`, kamstaVersion},
		{"records offset", `the records from byte (\d+) on`, kamstaHeaderSize},
		{"header size", `exactly the (\d+)-byte header`, kamstaHeaderSize},
		{"record size", `a record is (\d+) bytes`, kamstaRecordSize},
		{"record stride", `starts at byte \d+ \+ (\d+)·i`, kamstaRecordSize},
		{"records start", `starts at byte (\d+) \+`, kamstaHeaderSize},
	} {
		m := regexp.MustCompile(c.pattern).FindSubmatch(sec)
		if m == nil {
			t.Fatalf("DESIGN.md §6.1 no longer quotes the %s (pattern %q)", c.name, c.pattern)
		}
		if got, _ := strconv.Atoi(string(m[1])); got != c.code {
			t.Errorf("DESIGN.md §6.1 says the %s is %d, the code %d", c.name, got, c.code)
		}
	}
}
