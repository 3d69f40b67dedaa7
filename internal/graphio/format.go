// Package graphio reads and writes graph instances on disk and feeds them
// into the simulated machine. It is the file-backed counterpart of
// internal/gen: where gen materializes an instance from a hash function,
// graphio materializes it from a file, and both hand the world the same
// §II-B input format (globally sorted distributed edge list, duplicates and
// self-loops removed, consecutive IDs, replicated layout).
//
// Three text interchange formats and one binary format are supported:
//
//   - EdgeList: one "u v [w]" line per undirected edge, '#'/'%' comments.
//   - Gr: the 9th-DIMACS shortest-path format used by the road-network
//     instances ("c" comments, "p sp n m" problem line, "a u v w" arcs).
//   - Metis: the METIS/Chaco adjacency format (header "n m [fmt]", line i
//     lists vertex i's neighbors, every edge appears in both lists).
//   - Kamsta: this repository's binary format — a fixed-width little-endian
//     edge record array behind a fixed-size header, so each PE of a loading
//     world seeks and reads exactly its slice in parallel (see binary.go and
//     DESIGN.md §6).
//
// Loading is distributed: Load runs inside the world and every PE ingests a
// disjoint byte range of the file concurrently; no rank scans the whole
// file on behalf of the others.
package graphio

import (
	"fmt"
	"path/filepath"
	"strings"
)

// Format identifies an on-disk graph format.
type Format int

const (
	// FormatAuto selects the format from the file extension (DetectFormat).
	FormatAuto Format = iota
	// FormatKamsta is the binary format (extension .kg).
	FormatKamsta
	// FormatEdgeList is the plain "u v [w]" text format (.txt, .el).
	FormatEdgeList
	// FormatGr is the 9th-DIMACS shortest-path format (.gr).
	FormatGr
	// FormatMetis is the METIS adjacency format (.metis, .graph).
	FormatMetis
)

// String returns the canonical format name.
func (f Format) String() string {
	switch f {
	case FormatAuto:
		return "auto"
	case FormatKamsta:
		return "kamsta"
	case FormatEdgeList:
		return "edgelist"
	case FormatGr:
		return "gr"
	case FormatMetis:
		return "metis"
	}
	return fmt.Sprintf("Format(%d)", int(f))
}

// ParseFormat resolves a user-supplied format name.
func ParseFormat(name string) (Format, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "auto":
		return FormatAuto, nil
	case "kamsta", "kg", "binary":
		return FormatKamsta, nil
	case "edgelist", "el", "txt", "text":
		return FormatEdgeList, nil
	case "gr", "dimacs":
		return FormatGr, nil
	case "metis", "graph", "chaco":
		return FormatMetis, nil
	}
	return FormatAuto, fmt.Errorf("graphio: unknown format %q (known: kamsta, edgelist, gr, metis, auto)", name)
}

// DetectFormat guesses the format from the file extension; unknown
// extensions default to the edge-list text format.
func DetectFormat(path string) Format {
	switch strings.ToLower(filepath.Ext(path)) {
	case ".kg", ".kamsta":
		return FormatKamsta
	case ".gr", ".dimacs":
		return FormatGr
	case ".metis", ".graph", ".chaco":
		return FormatMetis
	default:
		return FormatEdgeList
	}
}

// resolve turns FormatAuto into a concrete format for path.
func (f Format) resolve(path string) Format {
	if f == FormatAuto {
		return DetectFormat(path)
	}
	return f
}
