package graphio

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"kamsta/internal/graph"
)

// The kamsta binary graph format ("KMSG"): a header and a flat array of
// fixed-width little-endian edge records. Records are the canonical
// undirected edges (U < V) in lexicographic order; labels are 1-based and
// below 2^32, so a record is 12 bytes (u, v uint32, w uint32). Record i
// starts at byte kamstaHeaderSize + i·kamstaRecordSize, so a loading world
// assigns every PE a contiguous record range and each PE reads only the
// record bytes of its own range.
const (
	kamstaMagic      = "KMSG"
	kamstaVersion    = 2
	kamstaHeaderSize = 24
	kamstaRecordSize = 12
)

// kamstaHeader is the decoded fixed-size file header.
type kamstaHeader struct {
	Vertices uint64 // maximum endpoint label (= vertex count for the consecutive-ID inputs the writer takes; informational)
	Records  uint64 // canonical undirected edge records
}

// writeKamsta writes the canonical undirected edges (U < V entries of the
// directed sequence) in their given order. edges must be lexicographically
// sorted, as produced by gen.Build / Load. It writes a record at a time, so
// w should be buffered, as WriteFile's is.
func writeKamsta(w io.Writer, edges []graph.Edge) error {
	records, maxLabel := canonicalCount(edges)
	buf := make([]byte, kamstaHeaderSize)
	copy(buf, kamstaMagic)
	binary.LittleEndian.PutUint32(buf[4:], kamstaVersion)
	binary.LittleEndian.PutUint64(buf[8:], maxLabel)
	binary.LittleEndian.PutUint64(buf[16:], records)
	if _, err := w.Write(buf); err != nil {
		return err
	}
	rec := buf[:kamstaRecordSize]
	for _, e := range edges {
		if e.U >= e.V {
			continue
		}
		if e.U >= 1<<32 || e.V >= 1<<32 {
			return fmt.Errorf("graphio: vertex label %d exceeds 2^32; not representable", max(e.U, e.V))
		}
		binary.LittleEndian.PutUint32(rec[0:], uint32(e.U))
		binary.LittleEndian.PutUint32(rec[4:], uint32(e.V))
		binary.LittleEndian.PutUint32(rec[8:], e.W)
		if _, err := w.Write(rec); err != nil {
			return err
		}
	}
	return nil
}

// versionError refuses a kamsta file of another format version, naming it
// and the one this reader takes.
type versionError uint32

func (v versionError) Error() string {
	return fmt.Sprintf("unsupported kamsta format version %d (want %d)", uint32(v), kamstaVersion)
}

// readKamstaHeader decodes and validates the header against the file size,
// which must be exactly the header and its records: a truncated or padded
// file is refused here, before any PE reads a record.
func readKamstaHeader(r io.ReaderAt, fileSize int64) (kamstaHeader, error) {
	var h kamstaHeader
	buf := make([]byte, kamstaHeaderSize)
	if err := readAtFull(r, buf, 0); err != nil {
		return h, fmt.Errorf("reading kamsta header: %w", err)
	}
	if string(buf[:4]) != kamstaMagic {
		return h, fmt.Errorf("bad magic %q (not a kamsta graph file)", buf[:4])
	}
	if v := binary.LittleEndian.Uint32(buf[4:]); v != kamstaVersion {
		return h, versionError(v)
	}
	h.Vertices = binary.LittleEndian.Uint64(buf[8:])
	h.Records = binary.LittleEndian.Uint64(buf[16:])
	if h.Records > (math.MaxInt64-kamstaHeaderSize)/kamstaRecordSize {
		return h, fmt.Errorf("corrupt kamsta header: implausible record count %d", h.Records)
	}
	if err := graph.CheckEdgeCount(h.Records); err != nil {
		return h, fmt.Errorf("kamsta header: %w", err)
	}
	if want := kamstaHeaderSize + int64(h.Records)*kamstaRecordSize; want != fileSize {
		return h, fmt.Errorf("truncated kamsta file: %d bytes, header implies %d", fileSize, want)
	}
	return h, nil
}

// readKamstaRange reads records [lo, hi) and appends both directed copies
// of every record to out. It reads exactly the record bytes of the range.
func readKamstaRange(r io.ReaderAt, h kamstaHeader, lo, hi uint64, trace func(off, n int64)) ([]graph.Edge, error) {
	if hi > h.Records || lo > hi {
		return nil, fmt.Errorf("record range [%d,%d) out of bounds (%d records)", lo, hi, h.Records)
	}
	if lo == hi {
		return nil, nil
	}
	base := kamstaHeaderSize + int64(lo)*kamstaRecordSize
	buf := make([]byte, (hi-lo)*kamstaRecordSize)
	if err := readAtFull(r, buf, base); err != nil {
		return nil, fmt.Errorf("reading kamsta records: %w", err)
	}
	if trace != nil {
		trace(base, int64(len(buf)))
	}
	out := make([]graph.Edge, 0, 2*(hi-lo))
	for i := 0; i < len(buf); i += kamstaRecordSize {
		u := uint64(binary.LittleEndian.Uint32(buf[i:]))
		v := uint64(binary.LittleEndian.Uint32(buf[i+4:]))
		w := binary.LittleEndian.Uint32(buf[i+8:])
		if u == 0 || v == 0 {
			return nil, fmt.Errorf("record %d: vertex label 0 (labels are 1-based)", lo+uint64(i/kamstaRecordSize))
		}
		if u == v {
			continue // self-loops are dropped on ingestion
		}
		out = append(out, graph.NewEdge(u, v, w), graph.NewEdge(v, u, w))
	}
	return out, nil
}
