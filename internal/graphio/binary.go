package graphio

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"kamsta/internal/graph"
)

// The kamsta binary graph format ("KMSG"): a header, a per-chunk index, and
// a flat array of fixed-width little-endian edge records. Records are the
// canonical undirected edges (U < V) in lexicographic order; labels are
// 1-based and below 2^32, so a record is 12 bytes (u, v uint32, w uint32).
//
// The per-chunk index maps record ranges to byte offsets: chunk k covers
// records [k·chunkSize, min((k+1)·chunkSize, records)) and the index entry
// stores that first record number and its absolute byte offset. With
// fixed-width records the offsets are also closed-form; the index is the
// format's seek contract (it survives a future variable-width record
// encoding) and doubles as a consistency check against truncation. A
// loading world assigns every PE a contiguous record range and each PE
// reads only the index entries and record bytes of its own range.
const (
	kamstaMagic      = "KMSG"
	kamstaVersion    = 1
	kamstaHeaderSize = 32
	kamstaIndexEntry = 16
	kamstaRecordSize = 12
	// kamstaChunkRecords is the default chunk granularity of the writer.
	kamstaChunkRecords = 1 << 14
)

// kamstaHeader is the decoded fixed-size file header.
type kamstaHeader struct {
	Vertices  uint64 // maximum endpoint label (= vertex count for the consecutive-ID inputs the writer takes; informational)
	Records   uint64 // canonical undirected edge records
	ChunkSize uint32 // records per chunk (last chunk may be short)
	NumChunks uint32
}

// recordsStart returns the absolute byte offset of record 0.
func (h kamstaHeader) recordsStart() int64 {
	return kamstaHeaderSize + int64(h.NumChunks)*kamstaIndexEntry
}

// writeKamsta writes the canonical undirected edges (U < V entries of the
// directed sequence) in their given order. edges must be lexicographically
// sorted, as produced by gen.Build / Load.
func writeKamsta(w io.Writer, edges []graph.Edge) error {
	records, maxLabel := canonicalCount(edges)
	h := kamstaHeader{
		Vertices:  maxLabel,
		Records:   records,
		ChunkSize: kamstaChunkRecords,
		NumChunks: uint32((records + kamstaChunkRecords - 1) / kamstaChunkRecords),
	}
	buf := make([]byte, kamstaHeaderSize)
	copy(buf, kamstaMagic)
	binary.LittleEndian.PutUint32(buf[4:], kamstaVersion)
	binary.LittleEndian.PutUint64(buf[8:], h.Vertices)
	binary.LittleEndian.PutUint64(buf[16:], h.Records)
	binary.LittleEndian.PutUint32(buf[24:], h.ChunkSize)
	binary.LittleEndian.PutUint32(buf[28:], h.NumChunks)
	if _, err := w.Write(buf); err != nil {
		return err
	}
	// Index: first record number and absolute byte offset per chunk.
	ent := make([]byte, kamstaIndexEntry)
	for k := uint32(0); k < h.NumChunks; k++ {
		first := uint64(k) * uint64(h.ChunkSize)
		binary.LittleEndian.PutUint64(ent, first)
		binary.LittleEndian.PutUint64(ent[8:], uint64(h.recordsStart())+first*kamstaRecordSize)
		if _, err := w.Write(ent); err != nil {
			return err
		}
	}
	// Records, buffered in chunk-sized blocks.
	block := make([]byte, 0, kamstaChunkRecords*kamstaRecordSize)
	for _, e := range edges {
		if e.U >= e.V {
			continue
		}
		if e.U >= 1<<32 || e.V >= 1<<32 {
			return fmt.Errorf("graphio: vertex label %d exceeds 2^32; not representable", max(e.U, e.V))
		}
		var rec [kamstaRecordSize]byte
		binary.LittleEndian.PutUint32(rec[0:], uint32(e.U))
		binary.LittleEndian.PutUint32(rec[4:], uint32(e.V))
		binary.LittleEndian.PutUint32(rec[8:], e.W)
		block = append(block, rec[:]...)
		if len(block) == cap(block) {
			if _, err := w.Write(block); err != nil {
				return err
			}
			block = block[:0]
		}
	}
	if len(block) > 0 {
		if _, err := w.Write(block); err != nil {
			return err
		}
	}
	return nil
}

// readKamstaHeader decodes and validates the header against the file size.
func readKamstaHeader(r io.ReaderAt, fileSize int64) (kamstaHeader, error) {
	var h kamstaHeader
	buf := make([]byte, kamstaHeaderSize)
	if err := readAtFull(r, buf, 0); err != nil {
		return h, fmt.Errorf("graphio: reading kamsta header: %w", err)
	}
	if string(buf[:4]) != kamstaMagic {
		return h, fmt.Errorf("graphio: bad magic %q (not a kamsta graph file)", buf[:4])
	}
	if v := binary.LittleEndian.Uint32(buf[4:]); v != kamstaVersion {
		return h, fmt.Errorf("graphio: unsupported kamsta format version %d (want %d)", v, kamstaVersion)
	}
	h.Vertices = binary.LittleEndian.Uint64(buf[8:])
	h.Records = binary.LittleEndian.Uint64(buf[16:])
	h.ChunkSize = binary.LittleEndian.Uint32(buf[24:])
	h.NumChunks = binary.LittleEndian.Uint32(buf[28:])
	if h.Records > 0 && h.ChunkSize == 0 {
		return h, fmt.Errorf("graphio: corrupt kamsta header: zero chunk size with %d records", h.Records)
	}
	if h.ChunkSize > 0 {
		if want := uint32((h.Records + uint64(h.ChunkSize) - 1) / uint64(h.ChunkSize)); want != h.NumChunks {
			return h, fmt.Errorf("graphio: corrupt kamsta header: %d chunks for %d records of chunk size %d (want %d)",
				h.NumChunks, h.Records, h.ChunkSize, want)
		}
	}
	if err := graph.CheckEdgeCount(h.Records); err != nil {
		return h, fmt.Errorf("graphio: kamsta header: %w", err)
	}
	if h.Records > math.MaxInt64/kamstaRecordSize {
		return h, fmt.Errorf("graphio: corrupt kamsta header: implausible record count %d", h.Records)
	}
	if want := h.recordsStart() + int64(h.Records)*kamstaRecordSize; want != fileSize {
		return h, fmt.Errorf("graphio: truncated kamsta file: %d bytes, header implies %d", fileSize, want)
	}
	return h, nil
}

// readKamstaRange reads records [lo, hi) through the chunk index and
// appends both directed copies of every record to out. It reads exactly
// the index entries and record bytes covering the range.
func readKamstaRange(r io.ReaderAt, h kamstaHeader, lo, hi uint64, trace func(off, n int64)) ([]graph.Edge, error) {
	if hi > h.Records || lo > hi {
		return nil, fmt.Errorf("graphio: record range [%d,%d) out of bounds (%d records)", lo, hi, h.Records)
	}
	if lo == hi {
		return nil, nil
	}
	// The index entries of the chunks covering [lo, hi).
	ck0 := uint32(lo / uint64(h.ChunkSize))
	ck1 := uint32((hi - 1) / uint64(h.ChunkSize))
	ibuf := make([]byte, int(ck1-ck0+1)*kamstaIndexEntry)
	if err := readAtFull(r, ibuf, kamstaHeaderSize+int64(ck0)*kamstaIndexEntry); err != nil {
		return nil, fmt.Errorf("graphio: reading kamsta index: %w", err)
	}
	for k := ck0; k <= ck1; k++ {
		ent := ibuf[(k-ck0)*kamstaIndexEntry:]
		first := binary.LittleEndian.Uint64(ent)
		off := binary.LittleEndian.Uint64(ent[8:])
		if first != uint64(k)*uint64(h.ChunkSize) || off != uint64(h.recordsStart())+first*kamstaRecordSize {
			return nil, fmt.Errorf("graphio: corrupt kamsta index entry %d: first=%d off=%d", k, first, off)
		}
	}
	// The record bytes of exactly [lo, hi), located via chunk ck0's entry.
	base := int64(binary.LittleEndian.Uint64(ibuf[8:])) + int64(lo-uint64(ck0)*uint64(h.ChunkSize))*kamstaRecordSize
	buf := make([]byte, (hi-lo)*kamstaRecordSize)
	if err := readAtFull(r, buf, base); err != nil {
		return nil, fmt.Errorf("graphio: reading kamsta records: %w", err)
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
			return nil, fmt.Errorf("graphio: record %d: vertex label 0 (labels are 1-based)", lo+uint64(i/kamstaRecordSize))
		}
		if u == v {
			continue // self-loops are dropped on ingestion
		}
		out = append(out, graph.NewEdge(u, v, w), graph.NewEdge(v, u, w))
	}
	return out, nil
}
