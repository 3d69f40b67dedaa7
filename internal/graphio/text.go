package graphio

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"kamsta/internal/graph"
)

// rawEdge is one parsed undirected edge before label normalization: labels
// are as found in the file (possibly 0-based), and HasW records whether the
// file carried a weight (unweighted inputs get deterministic weights).
type rawEdge struct {
	U, V uint64
	W    uint32
	HasW bool
}

// forEachLine calls fn for every line of data with the absolute file
// offset of the line's first byte (base is data[0]'s offset), terminators
// stripped. A final newline does not open an extra empty line; an empty line
// between two newlines does count (METIS: a vertex with no neighbors).
// Byte-range loading hands each PE a private slice, so parse
// diagnostics carry file offsets, which stay meaningful at any PE count,
// rather than slice-relative line numbers.
func forEachLine(data []byte, base int64, fn func(off int64, line []byte) error) error {
	for len(data) > 0 {
		ln, adv := data, len(data)
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			ln, adv = data[:i], i+1
		}
		if err := fn(base, bytes.TrimSuffix(ln, []byte{'\r'})); err != nil {
			return err
		}
		base += int64(adv)
		data = data[adv:]
	}
	return nil
}

// parseUint parses a decimal from a field without a string copy — the
// parsers sit on the bulk-ingestion path, where a strconv string per field
// would double the transient allocation volume of a load.
func parseUint(b []byte, max uint64) (uint64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if v > (max-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	return v, true
}

// parseLabel parses a vertex label field.
func parseLabel(b []byte) (uint64, error) {
	v, ok := parseUint(b, math.MaxUint64)
	if !ok {
		return 0, fmt.Errorf("bad vertex label %q", b)
	}
	return v, nil
}

// parseWeight parses an edge weight field into the uint32 weight domain.
func parseWeight(b []byte) (uint32, error) {
	v, ok := parseUint(b, math.MaxUint32)
	if !ok {
		return 0, fmt.Errorf("bad edge weight %q", b)
	}
	return uint32(v), nil
}

// parseEdgeFields parses the "u v [w]" fields an edge-list line consists of
// and a gr arc line ends in.
func parseEdgeFields(fields [][]byte) (e rawEdge, err error) {
	if e.U, err = parseLabel(fields[0]); err != nil {
		return e, err
	}
	if e.V, err = parseLabel(fields[1]); err != nil {
		return e, err
	}
	if len(fields) == 3 {
		e.W, err = parseWeight(fields[2])
		e.HasW = true
	}
	return e, err
}

// parseEdgeListData parses plain edge-list lines: "u v [w]" per undirected
// edge, '#' or '%' comment lines, blank lines ignored. base is the file
// offset of data[0], for diagnostics.
func parseEdgeListData(data []byte, base int64) ([]rawEdge, error) {
	var out []rawEdge
	err := forEachLine(data, base, func(off int64, ln []byte) error {
		s := bytes.TrimSpace(ln)
		if len(s) == 0 || s[0] == '#' || s[0] == '%' {
			return nil
		}
		fields := bytes.Fields(s)
		if len(fields) != 2 && len(fields) != 3 {
			return fmt.Errorf("edge list line at byte %d: want \"u v [w]\", got %q", off, s)
		}
		e, err := parseEdgeFields(fields)
		if err != nil {
			return fmt.Errorf("edge list line at byte %d: %v", off, err)
		}
		out = append(out, e)
		return nil
	})
	return out, err
}

// parseGrData parses 9th-DIMACS shortest-path lines: 'c' comments, one
// "p sp n m" problem line, and "a u v w" arcs. Byte-range loading means a
// given PE may see no problem line (it fell in another PE's range), so its
// presence is not required here. base is the file offset of data[0].
func parseGrData(data []byte, base int64) ([]rawEdge, error) {
	var out []rawEdge
	err := forEachLine(data, base, func(off int64, ln []byte) error {
		s := bytes.TrimSpace(ln)
		if len(s) == 0 {
			return nil
		}
		switch s[0] {
		case 'c', '%', '#':
			return nil
		case 'p':
			fields := bytes.Fields(s)
			if len(fields) < 4 {
				return fmt.Errorf("gr line at byte %d: malformed problem line %q", off, s)
			}
			for _, f := range fields[2:4] {
				if _, err := parseLabel(f); err != nil {
					return fmt.Errorf("gr line at byte %d: %v", off, err)
				}
			}
		case 'a', 'e':
			fields := bytes.Fields(s)
			if len(fields) != 3 && len(fields) != 4 {
				return fmt.Errorf("gr line at byte %d: want \"a u v w\", got %q", off, s)
			}
			e, err := parseEdgeFields(fields[1:])
			if err != nil {
				return fmt.Errorf("gr line at byte %d: %v", off, err)
			}
			out = append(out, e)
		default:
			return fmt.Errorf("gr line at byte %d: unrecognized line %q", off, s)
		}
		return nil
	})
	return out, err
}

// metisHeader is the decoded first non-comment line of a METIS file.
type metisHeader struct {
	N, M uint64
	// NCon vertex weights lead each line when VertexWeights is set.
	NCon           int
	VertexSizes    bool
	VertexWeights  bool
	HasEdgeWeights bool
}

// parseMetisHeader decodes "n m [fmt [ncon]]"; fmt is up to three digits
// "abc" flagging vertex sizes, vertex weights and edge weights.
func parseMetisHeader(line string) (metisHeader, error) {
	var h metisHeader
	fields := strings.Fields(strings.TrimSpace(line))
	if len(fields) < 2 || len(fields) > 4 {
		return h, fmt.Errorf("metis header: want \"n m [fmt [ncon]]\", got %q", line)
	}
	var err error
	if h.N, err = parseLabel([]byte(fields[0])); err != nil {
		return h, fmt.Errorf("metis header: %v", err)
	}
	if h.M, err = parseLabel([]byte(fields[1])); err != nil {
		return h, fmt.Errorf("metis header: %v", err)
	}
	h.NCon = 1
	if len(fields) >= 3 {
		f := fields[2]
		if len(f) > 3 || strings.Trim(f, "01") != "" {
			return h, fmt.Errorf("metis header: bad fmt field %q", f)
		}
		// Right-aligned flags: the last digit is edge weights.
		for i, c := range f {
			on := c == '1'
			switch len(f) - i {
			case 3:
				h.VertexSizes = on
			case 2:
				h.VertexWeights = on
			case 1:
				h.HasEdgeWeights = on
			}
		}
	}
	if len(fields) == 4 {
		n, err := strconv.Atoi(fields[3])
		if err != nil || n < 0 {
			return h, fmt.Errorf("metis header: bad ncon field %q", fields[3])
		}
		h.NCon = n
	}
	return h, nil
}

// countMetisLines counts the vertex lines in a range of the adjacency
// region ('%' comment lines do not number a vertex). tailBlanks is the
// number of blank vertex lines after the last non-blank one — the run a
// trailing-whitespace tolerance may discount (a blank line mid-file is a
// legitimate zero-degree vertex, so only file-trailing blanks may go).
func countMetisLines(data []byte) (n, tailBlanks int) {
	forEachLine(data, 0, func(_ int64, ln []byte) error {
		s := bytes.TrimSpace(ln)
		if len(s) > 0 && s[0] == '%' {
			return nil
		}
		n++
		if len(s) == 0 {
			tailBlanks++
		} else {
			tailBlanks = 0
		}
		return nil
	})
	return n, tailBlanks
}

// parseMetisData parses vertex lines of the adjacency region; the first
// vertex line in data describes vertex firstVertex (1-based line number in
// the whole file's adjacency region). Every adjacency entry yields one
// rawEdge (u, neighbor); neighbors may be 0-based, which Load detects and
// shifts globally.
func parseMetisData(data []byte, h metisHeader, firstVertex uint64) ([]rawEdge, error) {
	var out []rawEdge
	u := firstVertex
	// Diagnostics locate by vertex id, which is absolute at any PE count
	// (the vertex's adjacency line is line id+1 of the file's data region).
	err := forEachLine(data, 0, func(_ int64, ln []byte) error {
		s := bytes.TrimSpace(ln)
		if len(s) > 0 && s[0] == '%' {
			return nil
		}
		fields := bytes.Fields(s)
		skip := 0
		if h.VertexSizes {
			skip++
		}
		if h.VertexWeights {
			skip += h.NCon
		}
		if len(fields) < skip {
			return fmt.Errorf("metis vertex %d: %d fields, want at least %d vertex size/weight fields",
				u, len(fields), skip)
		}
		fields = fields[skip:]
		step := 1 // fields per neighbor
		if h.HasEdgeWeights {
			step = 2
			if len(fields)%2 != 0 {
				return fmt.Errorf("metis vertex %d: odd neighbor/weight list", u)
			}
		}
		for j := 0; j < len(fields); j += step {
			e := rawEdge{U: u, HasW: h.HasEdgeWeights}
			var err error
			if e.V, err = parseLabel(fields[j]); err == nil && e.HasW {
				e.W, err = parseWeight(fields[j+1])
			}
			if err != nil {
				return fmt.Errorf("metis vertex %d: %v", u, err)
			}
			out = append(out, e)
		}
		u++
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// buildEdges turns parsed raw edges into both directed working copies,
// applying the label shifts (0-based inputs become 1-based) and assigning
// deterministic weights to unweighted entries. Self-loops are dropped here;
// duplicates are left for the global dedup in gen.Finish.
func buildEdges(raws []rawEdge, shiftU, shiftV uint64, seed uint64) ([]graph.Edge, error) {
	out := make([]graph.Edge, 0, 2*len(raws))
	for _, r := range raws {
		u, v := r.U+shiftU, r.V+shiftV
		if u == 0 || v == 0 {
			return nil, fmt.Errorf("vertex label 0 in a 1-based input")
		}
		if u >= 1<<32 || v >= 1<<32 {
			return nil, fmt.Errorf("vertex label %d exceeds 2^32", max(u, v))
		}
		if u == v {
			continue
		}
		w := r.W
		if !r.HasW {
			w = graph.RandomWeight(seed, u, v)
		}
		out = append(out, graph.NewEdge(u, v, w), graph.NewEdge(v, u, w))
	}
	return out, nil
}

// canonicalCount returns the number of canonical (U < V) entries and the
// maximum endpoint label of a directed edge sequence.
func canonicalCount(edges []graph.Edge) (uint64, uint64) {
	n, maxL := uint64(0), uint64(0)
	for _, e := range edges {
		maxL = max(maxL, e.U, e.V)
		if e.U < e.V {
			n++
		}
	}
	return n, maxL
}

// writeRecords writes every canonical (U < V) edge as one "<prefix>u v w"
// line.
func writeRecords(w io.Writer, prefix string, edges []graph.Edge) error {
	buf := make([]byte, 0, 64)
	for _, e := range edges {
		if e.U >= e.V {
			continue
		}
		buf = append(buf[:0], prefix...)
		buf = strconv.AppendUint(buf, e.U, 10)
		buf = append(buf, ' ')
		buf = strconv.AppendUint(buf, e.V, 10)
		buf = append(buf, ' ')
		buf = strconv.AppendUint(buf, uint64(e.W), 10)
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// writeGr writes the 9th-DIMACS format: each undirected edge once as an
// "a u v w" arc (loaders reconstruct both directions).
func writeGr(w io.Writer, edges []graph.Edge) error {
	m, n := canonicalCount(edges)
	if _, err := fmt.Fprintf(w, "c kamsta graph, %d vertices (max label), %d undirected edges\np sp %d %d\n", n, m, n, m); err != nil {
		return err
	}
	return writeRecords(w, "a ", edges)
}

// writeMetis writes the METIS adjacency format with edge weights
// (fmt 001): line i lists vertex i's neighbors as "nb w" pairs, every edge
// in both lists. Vertices are 1..maxLabel, so labels should be consecutive
// (as produced by gen.Build and Load) to avoid blank filler lines.
func writeMetis(w io.Writer, edges []graph.Edge) error {
	m, n := canonicalCount(edges)
	if n > max(1<<26, 8*uint64(len(edges))+1024) {
		return fmt.Errorf("graphio: max label %d too sparse for METIS adjacency output", n)
	}
	type pair struct {
		v graph.VID
		w graph.Weight
	}
	adj := make([][]pair, n+1)
	for _, e := range edges {
		if e.U >= e.V {
			continue
		}
		adj[e.U] = append(adj[e.U], pair{e.V, e.W})
		adj[e.V] = append(adj[e.V], pair{e.U, e.W})
	}
	if _, err := fmt.Fprintf(w, "%% kamsta graph\n%d %d 001\n", n, m); err != nil {
		return err
	}
	buf := make([]byte, 0, 256)
	for u := uint64(1); u <= n; u++ {
		buf = buf[:0]
		for j, p := range adj[u] {
			if j > 0 {
				buf = append(buf, ' ')
			}
			buf = strconv.AppendUint(buf, p.v, 10)
			buf = append(buf, ' ')
			buf = strconv.AppendUint(buf, uint64(p.w), 10)
		}
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}
