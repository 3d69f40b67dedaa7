package graphio

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"

	"kamsta/internal/comm"
	"kamsta/internal/dsort"
	"kamsta/internal/faultinject"
	"kamsta/internal/gen"
	"kamsta/internal/graph"
)

// Options configures a distributed Load.
type Options struct {
	// Format of the file; FormatAuto detects it from the extension.
	Format Format
	// Seed drives the deterministic weights assigned to unweighted inputs
	// (same distribution as the generators: uniform in [1, 255)).
	Seed uint64
	// Sort configures the global sort that establishes the input
	// invariants, exactly like the sort option of gen.Build.
	Sort dsort.Options
}

// readTrace, when set (by tests), observes every bulk byte-range read as
// (rank, absolute file offset, length). Header, index and the one-byte
// line-boundary peeks are not traced; the trace shows which share of the
// payload each PE ingested.
var readTrace func(rank int, off, n int64)

// tracer returns the per-rank trace callback, or nil.
func tracer(rank int) func(off, n int64) {
	if readTrace == nil {
		return nil
	}
	return func(off, n int64) { readTrace(rank, off, n) }
}

// Load ingests a graph file into the world and returns this PE's share of
// the §II-B distributed input: globally sorted edges (both directions of
// every undirected edge), duplicates and self-loops removed, consecutive
// IDs, balanced across PEs, plus the replicated layout — exactly what
// gen.Build returns for a generated instance.
//
// Ingestion is parallel: every PE opens the file itself, seeks to its own
// disjoint slice (record ranges for the binary format, line-aligned byte
// ranges for the text formats) and reads only that slice; no PE scans the
// file on behalf of the others. Errors are agreed on collectively, so all
// PEs return the same error and no PE is left behind in a collective.
func Load(c *comm.Comm, path string, opt Options) ([]graph.Edge, *graph.Layout, error) {
	var raw []graph.Edge
	var err error
	switch f := opt.Format.resolve(path); f {
	case FormatKamsta:
		raw, err = loadKamsta(c, path)
	case FormatEdgeList:
		raw, err = loadText(c, path, false, opt.Seed)
	case FormatGr:
		raw, err = loadText(c, path, true, opt.Seed)
	case FormatMetis:
		raw, err = loadMetis(c, path, opt.Seed)
	default:
		err = shareErr(c, fmt.Errorf("unsupported format %v", f))
	}
	if err != nil {
		return nil, nil, err
	}
	edges, layout := gen.Finish(c, raw, opt.Sort)
	return edges, layout, nil
}

// shareErr agrees on one error across the world: the lowest-ranked PE's
// error wins, and every PE returns it (or nil) under the one "graphio: "
// prefix, which the errors agreed on do not carry themselves. A PE that had
// that error itself returns it wrapped, so errors.Is still sees it. Every
// PE must call it at the same point, with or without a local error.
func shareErr(c *comm.Comm, err error) error {
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	for r, m := range comm.Allgather(c, msg) {
		if m != "" {
			return agreedErr(r, m, err)
		}
	}
	return nil
}

// agreedErr is the error a PE returns when rank r's message m won: its own
// error, wrapped so errors.Is still sees it, if m is that error's text.
func agreedErr(r int, m string, own error) error {
	if own != nil && m == own.Error() {
		return fmt.Errorf("graphio: %w (PE %d)", own, r)
	}
	return fmt.Errorf("graphio: %s (PE %d)", m, r)
}

// byteRange splits 0..total-1 contiguously among the p PEs.
func byteRange(rank, p int, total uint64) (uint64, uint64) {
	return uint64(rank) * total / uint64(p), uint64(rank+1) * total / uint64(p)
}

// readAtFull reads exactly len(buf) bytes at off (ReaderAt may legally
// return io.EOF alongside a complete read at the end of the file).
func readAtFull(r io.ReaderAt, buf []byte, off int64) error {
	n, err := r.ReadAt(buf, off)
	if n == len(buf) {
		return nil
	}
	if err == nil {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// loadKamsta reads this PE's record range of a binary kamsta file.
func loadKamsta(c *comm.Comm, path string) ([]graph.Edge, error) {
	var out []graph.Edge
	err := func() error {
		f, size, err := openSized(path)
		if err != nil {
			return err
		}
		defer f.Close()
		h, err := readKamstaHeader(f, size)
		if err != nil {
			return err
		}
		lo, hi := byteRange(c.Rank(), c.P(), h.Records)
		// Chaos-testing hook: an injected read fault here behaves exactly
		// like a failing disk — the error is agreed on collectively below.
		if err := c.FaultPoint(faultinject.SiteGraphRead); err != nil {
			return err
		}
		out, err = readKamstaRange(f, h, lo, hi, tracer(c.Rank()))
		return err
	}()
	if err := shareErr(c, err); err != nil {
		return nil, err
	}
	c.ChargeCompute(len(out))
	return out, nil
}

// openSized opens path for reading and reports its size.
func openSized(path string) (*os.File, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, st.Size(), nil
}

// readMyLines is the text formats' one range driver: this PE's share of the
// file bytes [from, size), as whole lines (readLineRange), with the absolute
// offset of the first. The error is the caller's to agree on collectively.
func readMyLines(c *comm.Comm, f *os.File, from, size int64) ([]byte, int64, error) {
	lo, hi := byteRange(c.Rank(), c.P(), uint64(size-from))
	// Chaos-testing hook, as in loadKamsta.
	if err := c.FaultPoint(faultinject.SiteGraphRead); err != nil {
		return nil, 0, err
	}
	return readLineRange(f, size, from+int64(lo), from+int64(hi), tracer(c.Rank()))
}

// finishText ends a text load: agree on the parse error, detect a 0-based
// file with one global reduction over the labels, and build the directed
// edges with shiftU and shiftV added to its endpoints if it is (1 for the
// labels a file spells out, 0 for METIS's line-number sources, which are
// 1-based whatever the neighbour lists are). Collective.
func finishText(c *comm.Comm, raws []rawEdge, perr error, shiftU, shiftV, seed uint64) ([]graph.Edge, error) {
	if err := shareErr(c, perr); err != nil {
		return nil, err
	}
	minLabel := uint64(math.MaxUint64)
	for _, r := range raws {
		minLabel = min(minLabel, r.U, r.V)
	}
	if comm.Allreduce(c, minLabel, func(a, b uint64) uint64 { return min(a, b) }) != 0 {
		shiftU, shiftV = 0, 0 // 1-based already
	}
	out, err := buildEdges(raws, shiftU, shiftV, seed)
	if err := shareErr(c, err); err != nil {
		return nil, err
	}
	c.ChargeCompute(len(out))
	return out, nil
}

// loadText reads this PE's line-aligned byte range of an edge-list or
// DIMACS .gr file and normalizes its labels.
func loadText(c *comm.Comm, path string, gr bool, seed uint64) ([]graph.Edge, error) {
	var raws []rawEdge
	err := func() error {
		f, size, err := openSized(path)
		if err != nil {
			return err
		}
		defer f.Close()
		data, dataOff, err := readMyLines(c, f, 0, size)
		if err != nil {
			return err
		}
		if gr {
			raws, err = parseGrData(data, dataOff)
		} else {
			raws, err = parseEdgeListData(data, dataOff)
		}
		return err
	}()
	return finishText(c, raws, err, 1, 1, seed)
}

// loadMetis reads this PE's line-aligned byte range of the adjacency
// region. Vertex ids are line numbers, so each PE counts the vertex lines
// of its own range once and an exclusive scan over those counts gives
// every PE its first vertex id — two passes over the PE's private range,
// never a shared scan.
func loadMetis(c *comm.Comm, path string, seed uint64) ([]graph.Edge, error) {
	// Stage 1: every PE opens the file; the PE owning byte 0 (rank 0)
	// locates and parses the header line, which is then shared.
	type stage1 struct {
		Err    string
		Hdr    metisHeader
		HdrEnd int64
		Size   int64
	}
	var s1 stage1
	f, size, err := openSized(path)
	if err == nil {
		defer f.Close()
		s1.Size = size
		if c.Rank() == 0 {
			var hdrLine string
			if hdrLine, s1.HdrEnd, err = metisHeaderLine(f, size); err == nil {
				s1.Hdr, err = parseMetisHeader(hdrLine)
			}
		}
	}
	if err != nil {
		s1.Err = err.Error()
	}
	all1 := comm.Allgather(c, s1)
	for r, s := range all1 {
		if s.Err != "" {
			return nil, agreedErr(r, s.Err, err)
		}
	}
	hdr, hdrEnd, size := all1[0].Hdr, all1[0].HdrEnd, all1[0].Size

	// Stage 2: read this PE's line range of [hdrEnd, size) and count its
	// vertex lines; the counts are shared so every PE knows its first
	// vertex id and the world can check the total against the header.
	type stage2 struct {
		Err               string
		Lines, TailBlanks int
	}
	var s2 stage2
	data, _, err := readMyLines(c, f, hdrEnd, size)
	if err != nil {
		s2.Err = err.Error()
	} else {
		s2.Lines, s2.TailBlanks = countMetisLines(data)
	}
	all2 := comm.Allgather(c, s2)
	firstVertex, total := uint64(1), uint64(0)
	for r, s := range all2 {
		if s.Err != "" {
			return nil, agreedErr(r, s.Err, err)
		}
		if r < c.Rank() {
			firstVertex += uint64(s.Lines)
		}
		total += uint64(s.Lines)
	}
	// Tolerate trailing blank lines: surplus vertex lines are fine exactly
	// when they all lie in the file's final run of blank lines (parsing
	// them yields phantom zero-degree vertices that touch no edge).
	fileTailBlanks := uint64(0)
	for r := len(all2) - 1; r >= 0; r-- {
		fileTailBlanks += uint64(all2[r].TailBlanks)
		if all2[r].TailBlanks != all2[r].Lines {
			break
		}
	}
	if total < hdr.N || total-hdr.N > fileTailBlanks {
		return nil, fmt.Errorf("graphio: metis file has %d vertex lines, header promises %d", total, hdr.N)
	}

	// Stage 3: parse adjacency lines and normalize neighbor labels
	// (0-based neighbor lists shift to 1-based; vertex ids from line
	// numbers are already 1-based).
	raws, err := parseMetisData(data, hdr, firstVertex)
	return finishText(c, raws, err, 0, 1, seed)
}

// metisHeaderLine scans from the start of the file for the first
// non-comment line and returns it with the offset of the byte after its
// terminator. Only the PE owning the file head runs this.
func metisHeaderLine(r io.ReaderAt, size int64) (string, int64, error) {
	const block = 64 << 10
	var buf []byte
	pos := int64(0) // file offset of buf[0]
	for {
		i := bytes.IndexByte(buf, '\n')
		if end := pos + int64(len(buf)); i < 0 && end < size {
			ext := make([]byte, min(block, size-end))
			if err := readAtFull(r, ext, end); err != nil {
				return "", 0, err
			}
			buf = append(buf, ext...)
			continue
		}
		line, next := buf, size // the last line, without a terminator
		if i >= 0 {
			line, next = buf[:i], pos+int64(i)+1
		}
		if s := bytes.TrimSpace(line); len(s) > 0 && s[0] != '%' {
			return string(line), next, nil
		}
		if i < 0 {
			return "", 0, fmt.Errorf("metis file has no header line")
		}
		buf, pos = buf[i+1:], next
	}
}

// readLineRange returns the bytes of all lines starting in file byte range
// [lo, hi), plus the absolute file offset of the first returned byte: the
// partial line a range opens in belongs to the predecessor, and the line
// crossing hi is read to its end. Each PE therefore sees every line
// exactly once, reading only its own range plus at most one overlapping
// line.
func readLineRange(r io.ReaderAt, size, lo, hi int64, trace func(off, n int64)) ([]byte, int64, error) {
	if lo >= size || lo >= hi {
		return nil, 0, nil
	}
	if hi > size {
		hi = size
	}
	// One extra leading byte decides whether a line starts exactly at lo.
	start := lo
	if lo > 0 {
		start = lo - 1
	}
	buf := make([]byte, hi-start)
	if err := readAtFull(r, buf, start); err != nil {
		return nil, 0, err
	}
	if trace != nil {
		trace(start, int64(len(buf)))
	}
	if lo > 0 {
		if buf[0] == '\n' {
			buf = buf[1:]
		} else if i := bytes.IndexByte(buf, '\n'); i >= 0 {
			buf = buf[i+1:]
		} else {
			return nil, 0, nil // the whole range is the middle of one line owned by a predecessor
		}
	}
	if len(buf) == 0 {
		return nil, 0, nil
	}
	dataOff := hi - int64(len(buf)) // buf currently ends exactly at hi
	// Finish the line that crosses hi, reading small blocks so a PE never
	// pulls in more than its own lines plus one.
	if hi < size && buf[len(buf)-1] != '\n' {
		pos := hi
		ext := make([]byte, 4096)
		for pos < size {
			n := int64(len(ext))
			if pos+n > size {
				n = size - pos
			}
			if err := readAtFull(r, ext[:n], pos); err != nil {
				return nil, 0, err
			}
			if trace != nil {
				trace(pos, n)
			}
			if i := bytes.IndexByte(ext[:n], '\n'); i >= 0 {
				buf = append(buf, ext[:i+1]...)
				break
			}
			buf = append(buf, ext[:n]...)
			pos += n
		}
	}
	return buf, dataOff, nil
}
