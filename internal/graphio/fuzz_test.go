package graphio

import (
	"bytes"
	"testing"
)

// The text parsers face arbitrary user files; the contract is that
// malformed input errors and never panics, and that whatever parses also
// survives edge building. The seeds cover the grammar corners: comments,
// blank lines, 0-based ids, missing weights, CRLF, junk.

func fuzzBuild(t *testing.T, raws []rawEdge) {
	t.Helper()
	for _, shift := range []uint64{0, 1} {
		if _, err := buildEdges(raws, shift, shift, 7); err != nil {
			_ = err // overflow labels may error; must not panic
		}
	}
}

func FuzzParseEdgeList(f *testing.F) {
	f.Add([]byte("1 2 3\n2 3 4\n"))
	f.Add([]byte("# comment\n% comment\n\n0 1\n1 2 255\r\n"))
	f.Add([]byte("1 2 3 4 5\n"))
	f.Add([]byte("frogs toads 3\n"))
	f.Add([]byte("18446744073709551615 1 1\n"))
	f.Add([]byte("1 2 -7\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		raws, err := parseEdgeListData(data, 0)
		if err == nil {
			fuzzBuild(t, raws)
		}
	})
}

func FuzzParseGr(f *testing.F) {
	f.Add([]byte("c road net\np sp 3 2\na 1 2 7\na 2 3 9\n"))
	f.Add([]byte("p sp\n"))
	f.Add([]byte("a 1\n"))
	f.Add([]byte("e 1 2\nq nonsense\n"))
	f.Add([]byte("c\n\na 0 0 0\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		raws, err := parseGrData(data, 0)
		if err == nil {
			fuzzBuild(t, raws)
		}
	})
}

func FuzzParseMetis(f *testing.F) {
	f.Add([]byte("3 2 001\n2 7\n1 7 3 9\n2 9\n"), uint64(1))
	f.Add([]byte("2 1\n2\n1\n"), uint64(1))
	f.Add([]byte("2 1 011 2\n1 5 9 2\n1 5 9 1\n"), uint64(1))
	f.Add([]byte("% c\n\n2 1 1\n2\n"), uint64(3))
	f.Add([]byte("junk\n"), uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, firstVertex uint64) {
		if len(data) == 0 {
			return
		}
		first, rest := data, []byte{}
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			first, rest = data[:i], data[i+1:]
		}
		hdr, err := parseMetisHeader(string(bytes.TrimSuffix(first, []byte{'\r'})))
		if err != nil {
			return
		}
		raws, err := parseMetisData(rest, hdr, firstVertex%(1<<33))
		if err == nil {
			fuzzBuild(t, raws)
		}
	})
}
