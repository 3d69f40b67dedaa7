package graphio

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"kamsta/internal/graph"
)

// Write writes the directed edge sequence (as produced by gen.Build, Load
// or a world-collect) to w in the given concrete format. Only the
// canonical (U < V) copies are written; loaders reconstruct both
// directions. FormatAuto is rejected here — resolve it against a path
// first (WriteFile does).
func Write(w io.Writer, f Format, edges []graph.Edge) error {
	switch f {
	case FormatKamsta:
		return writeKamsta(w, edges)
	case FormatEdgeList:
		return writeRecords(w, "", edges) // "u v w" lines
	case FormatGr:
		return writeGr(w, edges)
	case FormatMetis:
		return writeMetis(w, edges)
	}
	return fmt.Errorf("graphio: cannot write format %v", f)
}

// WriteFile writes edges to path, resolving FormatAuto from the extension.
// Writes are buffered; flush and close errors are reported, and a file
// that failed mid-write is removed rather than left truncated.
func WriteFile(path string, f Format, edges []graph.Edge) (err error) {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := out.Close(); cerr != nil && err == nil {
			err = cerr
		}
		if err != nil {
			os.Remove(path)
		}
	}()
	bw := bufio.NewWriterSize(out, 1<<20)
	if err = Write(bw, f.resolve(path), edges); err != nil {
		return err
	}
	return bw.Flush()
}
