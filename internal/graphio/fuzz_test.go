package graphio

import (
	"bytes"
	"testing"

	"kamsta/internal/graph"
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

// FuzzKamstaFile feeds arbitrary bytes through the binary format's header
// check and record reader: an error, or edges none of which has label 0.
func FuzzKamstaFile(f *testing.F) {
	var valid bytes.Buffer
	if err := writeKamsta(&valid, []graph.Edge{graph.NewEdge(1, 2, 5), graph.NewEdge(1, 3, 7),
		graph.NewEdge(2, 1, 5), graph.NewEdge(3, 1, 7)}); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(kgBytes(kgMagic, uint32(1), uint64(3), uint64(0), uint32(1<<14), uint32(0)))
	f.Add([]byte("KMSG\x01\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		h, err := readKamstaHeader(r, int64(len(data)))
		if err != nil {
			return
		}
		for _, lo := range []uint64{0, h.Records / 2} {
			edges, err := readKamstaRange(r, h, lo, h.Records, nil)
			if err != nil {
				return
			}
			for _, e := range edges {
				if e.U == 0 || e.V == 0 {
					t.Fatalf("edge %v with label 0 read without an error", e)
				}
			}
		}
	})
}
