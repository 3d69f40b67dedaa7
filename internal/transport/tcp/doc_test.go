package tcp

import (
	"bytes"
	"encoding/binary"
	"os"
	"regexp"
	"strconv"
	"testing"

	"kamsta/internal/enc"
)

// TestDesignQuotesWireConstants parses the wire constants DESIGN.md quotes —
// magic, frame header size, the six frame kinds and MaxFrameSize — and
// compares each with the code, so the document cannot drift from the
// protocol it describes.
func TestDesignQuotesWireConstants(t *testing.T) {
	raw, err := os.ReadFile("../../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	quoted := func(what, pattern string) string {
		t.Helper()
		m := regexp.MustCompile(pattern).FindStringSubmatch(doc)
		if m == nil {
			t.Fatalf("DESIGN.md no longer quotes the %s (pattern %q)", what, pattern)
		}
		return m[1]
	}
	atoi := func(s string) int {
		t.Helper()
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}

	var magic [4]byte
	binary.BigEndian.PutUint32(magic[:], protoMagic)
	if got := quoted("magic", `magic \("([A-Z]{4})"\)`); got != string(magic[:]) {
		t.Errorf("DESIGN.md magic %q, code %q", got, magic[:])
	}
	var frame bytes.Buffer
	if err := enc.WriteFrame(&frame, kStep, nil); err != nil {
		t.Fatal(err)
	}
	if got := atoi(quoted("frame header size", `(\d+)-byte\s+frame\s+header`)); got != frame.Len() {
		t.Errorf("DESIGN.md frame header %d bytes, code writes %d", got, frame.Len())
	}
	if got := atoi(quoted("MaxFrameSize", "`MaxFrameSize`\\s+\\(2\\^(\\d+)\\s+bytes\\)")); 1<<got != enc.MaxFrameSize {
		t.Errorf("DESIGN.md MaxFrameSize 2^%d, code %d", got, enc.MaxFrameSize)
	}
	kinds := map[string]uint8{"HELLO": kHello, "WELCOME": kWelcome, "JOBSTART": kJobStart,
		"JOBEND": kJobEnd, "STEP": kStep, "REPLY": kReply}
	seen := regexp.MustCompile("`([A-Z]+)`=(\\d+)").FindAllStringSubmatch(doc, -1)
	if len(seen) != len(kinds) {
		t.Fatalf("DESIGN.md lists %d frame kinds, code has %d", len(seen), len(kinds))
	}
	for _, m := range seen {
		if want, ok := kinds[m[1]]; !ok || atoi(m[2]) != int(want) {
			t.Errorf("DESIGN.md frame kind %s=%s, code %v (known %v)", m[1], m[2], want, ok)
		}
	}
}

// TestDesignQuotesProtoVersion checks the protocol version DESIGN.md §7.6
// quotes against protoVersion: a change that moves the wire dialect bumps
// both.
func TestDesignQuotesProtoVersion(t *testing.T) {
	raw, err := os.ReadFile("../../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?s)### 7\.6 .*?protocol\s+version\s+(\d+).*?\n### 7\.7 `).FindSubmatch(raw)
	if m == nil {
		t.Fatal("DESIGN.md §7.6 no longer quotes the protocol version")
	}
	if got, err := strconv.Atoi(string(m[1])); err != nil || uint32(got) != protoVersion {
		t.Errorf("DESIGN.md §7.6 quotes protocol version %s, the code says %d", m[1], protoVersion)
	}
}
