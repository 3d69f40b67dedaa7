package graphio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"kamsta/internal/comm"
	"kamsta/internal/dsort"
	"kamsta/internal/gen"
	"kamsta/internal/graph"
)

// share is one PE's slice of the distributed input.
type share struct {
	edges  []graph.Edge
	layout *graph.Layout
}

// buildRef materializes spec at p PEs straight from the generator.
func buildRef(spec gen.Spec, p int) []share {
	out := make([]share, p)
	w := comm.NewWorld(p)
	w.Run(func(c *comm.Comm) {
		edges, layout := gen.Build(c, spec, dsort.Options{})
		out[c.Rank()] = share{edges, layout}
	})
	return out
}

// loadShares loads path at p PEs; every PE's error is required identical.
func loadShares(t *testing.T, path string, p int, opt Options) ([]share, error) {
	t.Helper()
	out := make([]share, p)
	errs := make([]error, p)
	w := comm.NewWorld(p)
	w.Run(func(c *comm.Comm) {
		edges, layout, err := Load(c, path, opt)
		out[c.Rank()] = share{edges, layout}
		errs[c.Rank()] = err
	})
	for r := 1; r < p; r++ {
		if fmt.Sprint(errs[r]) != fmt.Sprint(errs[0]) {
			t.Fatalf("PEs disagree on the load error: rank 0 %v, rank %d %v", errs[0], r, errs[r])
		}
	}
	return out, errs[0]
}

// concat flattens shares in rank order.
func concat(shares []share) []graph.Edge {
	var all []graph.Edge
	for _, s := range shares {
		all = append(all, s.edges...)
	}
	return all
}

var roundTripSpecs = []gen.Spec{
	{Family: gen.Grid2D, N: 180, Seed: 5},
	{Family: gen.RGG2D, N: 180, M: 700, Seed: 5},
	{Family: gen.RGG3D, N: 180, M: 700, Seed: 5},
	{Family: gen.RHG, N: 180, M: 700, Seed: 5},
	{Family: gen.GNM, N: 180, M: 700, Seed: 5},
	{Family: gen.RMAT, N: 180, M: 700, Seed: 5},
	{Family: gen.RoadLike, N: 180, Seed: 5},
}

// TestRoundTripBitIdentical is the subsystem's core property: for every
// family, every format and several PE counts, write(gen.Build) → Load
// reproduces the exact per-PE edge slices and the exact replicated layout
// that gen.Build itself hands the algorithms.
func TestRoundTripBitIdentical(t *testing.T) {
	formats := []Format{FormatKamsta, FormatEdgeList, FormatGr, FormatMetis}
	dir := t.TempDir()
	for _, spec := range roundTripSpecs {
		spec := spec
		t.Run(spec.Family.String(), func(t *testing.T) {
			written := concat(buildRef(spec, 4)) // the instance, collected once
			for _, f := range formats {
				path := filepath.Join(dir, fmt.Sprintf("%s.%s", spec.Family, f))
				if err := WriteFile(path, f, written); err != nil {
					t.Fatalf("%v: write: %v", f, err)
				}
				for _, p := range []int{1, 3, 4} {
					ref := buildRef(spec, p)
					got, err := loadShares(t, path, p, Options{Format: f})
					if err != nil {
						t.Fatalf("%v p=%d: load: %v", f, p, err)
					}
					for r := 0; r < p; r++ {
						if !reflect.DeepEqual(got[r].edges, ref[r].edges) {
							t.Fatalf("%v p=%d rank %d: loaded edges differ from gen.Build (%d vs %d edges)",
								f, p, r, len(got[r].edges), len(ref[r].edges))
						}
						if !reflect.DeepEqual(got[r].layout, ref[r].layout) {
							t.Fatalf("%v p=%d rank %d: loaded layout differs from gen.Build", f, p, r)
						}
					}
				}
			}
		})
	}
}

// TestLoadIsPEIndependent pins that the global edge sequence a file yields
// does not depend on the loading world's width.
func TestLoadIsPEIndependent(t *testing.T) {
	spec := gen.Spec{Family: gen.GNM, N: 150, M: 600, Seed: 9}
	path := filepath.Join(t.TempDir(), "g.kg")
	if err := WriteFile(path, FormatKamsta, concat(buildRef(spec, 4))); err != nil {
		t.Fatal(err)
	}
	one, err := loadShares(t, path, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	five, err := loadShares(t, path, 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(concat(one), concat(five)) {
		t.Fatal("global edge sequence depends on the loading PE count")
	}
}

// TestParallelByteRangeReads asserts the ingestion protocol: every PE
// reads its own slice, the slices cover the payload, and no PE scans the
// whole file on behalf of the others.
func TestParallelByteRangeReads(t *testing.T) {
	spec := gen.Spec{Family: gen.GNM, N: 400, M: 3000, Seed: 3}
	written := concat(buildRef(spec, 4))
	dir := t.TempDir()
	const p = 4
	for _, f := range []Format{FormatKamsta, FormatEdgeList, FormatGr, FormatMetis} {
		path := filepath.Join(dir, "g."+f.String())
		if err := WriteFile(path, f, written); err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		type span struct{ off, n int64 }
		var mu sync.Mutex
		reads := make(map[int][]span)
		readTrace = func(rank int, off, n int64) {
			mu.Lock()
			reads[rank] = append(reads[rank], span{off, n})
			mu.Unlock()
		}
		_, err = loadShares(t, path, p, Options{Format: f})
		readTrace = nil
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		share := st.Size() / p
		var total int64
		for r := 0; r < p; r++ {
			if len(reads[r]) == 0 {
				t.Fatalf("%v: rank %d read nothing — not a parallel ingestion", f, r)
			}
			var mine int64
			for _, s := range reads[r] {
				mine += s.n
			}
			total += mine
			// Generous slack: one boundary line / one chunk of overlap.
			if mine > share+share/2+4096 {
				t.Fatalf("%v: rank %d read %d of %d bytes — more than its slice", f, r, mine, st.Size())
			}
		}
		if total < st.Size()/2 {
			t.Fatalf("%v: ranks read %d bytes in total, file has %d — payload not covered", f, total, st.Size())
		}
	}
}

// TestZeroBasedInputs pins the 1/0-based tolerance: the same graph written
// 0-based and 1-based loads to the identical instance.
func TestZeroBasedInputs(t *testing.T) {
	dir := t.TempDir()
	oneBased := filepath.Join(dir, "one.el")
	zeroBased := filepath.Join(dir, "zero.el")
	if err := os.WriteFile(oneBased, []byte("# comment\n1 2 10\n2 3 20\n1 3 30\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(zeroBased, []byte("% comment\n0 1 10\n1 2 20\n0 2 30\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := loadShares(t, oneBased, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := loadShares(t, zeroBased, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(concat(a), concat(b)) {
		t.Fatalf("0-based load differs from 1-based load:\n%v\n%v", concat(a), concat(b))
	}
	if n := len(concat(a)); n != 6 {
		t.Fatalf("want 6 directed edges, got %d", n)
	}
}

// TestUnweightedInputsGetDeterministicWeights pins the generator-compatible
// weight assignment for weightless files.
func TestUnweightedInputsGetDeterministicWeights(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.el")
	if err := os.WriteFile(path, []byte("1 2\n2 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := loadShares(t, path, 2, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := loadShares(t, path, 3, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	ea, eb := concat(a), concat(b)
	if !reflect.DeepEqual(ea, eb) {
		t.Fatal("unweighted load not deterministic across PE counts")
	}
	for _, e := range ea {
		if e.W != graph.RandomWeight(11, e.U, e.V) {
			t.Fatalf("edge %v: weight %d is not the deterministic seed-11 weight", e, e.W)
		}
		if e.W < 1 || e.W >= 255 {
			t.Fatalf("edge %v: weight outside the experiment domain [1,255)", e)
		}
	}
}

// TestLoadErrors pins that malformed inputs error identically on every PE
// (never panic, never deadlock).
func TestLoadErrors(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	// A one-record file as version 1 wrote it: the chunk size and count
	// closed its 32-byte header, and one index entry preceded the record.
	v1 := write("v1.kg", string(kgBytes(kgMagic, uint32(1), uint64(2), uint64(1), uint32(1<<14), uint32(1),
		uint64(0), uint64(48), [3]uint32{1, 2, 5})))
	cases := []struct {
		name, path, want string
	}{
		{"missing file", filepath.Join(dir, "nope.kg"), "no such file"},
		{"bad magic", write("bad.kg", "XXXXjunkjunkjunkjunkjunkjunkjunkjunk"), "bad magic"},
		{"truncated binary", write("trunc.kg", "KMSG\x01\x00\x00\x00"), "kamsta header"},
		{"binary version 1", v1, "unsupported kamsta format version 1 (want 2)"},
		{"binary record short", write("short.kg", string(kgBytes(kgMagic, uint32(kamstaVersion), uint64(3), uint64(3),
			[3]uint32{1, 2, 5}, [3]uint32{2, 3, 7}))), "truncated kamsta file"},
		{"binary record overflow", write("huge.kg", string(kgBytes(kgMagic, uint32(kamstaVersion), uint64(3),
			uint64(1)<<62))), "implausible record count"},
		{"binary label 0", write("zero.kg", string(kgBytes(kgMagic, uint32(kamstaVersion), uint64(2), uint64(1),
			[3]uint32{0, 2, 5}))), "vertex label 0"},
		{"bad edge list", write("bad.el", "1 2 3\nfrogs toads 3\n"), "bad vertex label"},
		{"edge list arity", write("arity.el", "1 2 3 4 5\n"), "want \"u v [w]\""},
		{"gr junk line", write("bad.gr", "p sp 2 1\nq 1 2 5\n"), "unrecognized"},
		{"metis no header", write("empty.metis", "% only comments\n"), "header"},
		{"metis bad header", write("badhdr.metis", "three 1\n2\n1\n"), "metis header: bad vertex label"},
		{"metis count mismatch", write("short.metis", "3 1\n2\n1\n"), "header promises 3"},
		{"huge label", write("huge.el", "1 5000000000 4\n"), "exceeds 2^32"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := loadShares(t, tc.path, 3, Options{})
			if err == nil {
				t.Fatalf("load of %s succeeded, want error containing %q", tc.path, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			// Agreement adds the package prefix, exactly once.
			if msg := err.Error(); !strings.HasPrefix(msg, "graphio: ") || strings.Count(msg, "graphio: ") != 1 {
				t.Fatalf("error %q does not carry exactly one \"graphio: \" prefix", msg)
			}
		})
	}
	// The typed errors stay reachable through the agreement.
	if _, err := loadShares(t, v1, 3, Options{}); !errors.As(err, new(versionError)) {
		t.Fatalf("version-1 file refused with %v, want a versionError", err)
	}
	for _, name := range []string{"nope.kg", "nope.el", "nope.metis"} {
		if _, err := loadShares(t, filepath.Join(dir, name), 3, Options{}); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("missing %s refused with %v, want fs.ErrNotExist", name, err)
		}
	}
}

// kgMagic opens every kamsta file.
var kgMagic = [4]byte([]byte(kamstaMagic))

// kgBytes lays vals out little-endian, back to back: a kamsta file by hand.
func kgBytes(vals ...any) []byte {
	var b bytes.Buffer
	for _, v := range vals {
		if err := binary.Write(&b, binary.LittleEndian, v); err != nil {
			panic(err)
		}
	}
	return b.Bytes()
}

// TestMetisTrailingBlankLines pins the trailing-whitespace tolerance: a
// valid file ending in extra blank lines still loads, while a genuinely
// short or long file still errors.
func TestMetisTrailingBlankLines(t *testing.T) {
	dir := t.TempDir()
	clean := filepath.Join(dir, "clean.metis")
	trailing := filepath.Join(dir, "trailing.metis")
	if err := os.WriteFile(clean, []byte("3 2 001\n2 7\n1 7 3 9\n2 9\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(trailing, []byte("3 2 001\n2 7\n1 7 3 9\n2 9\n\n\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := loadShares(t, clean, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := loadShares(t, trailing, 3, Options{})
	if err != nil {
		t.Fatalf("trailing blank lines should be tolerated: %v", err)
	}
	if !reflect.DeepEqual(concat(a), concat(b)) {
		t.Fatal("trailing blank lines change the loaded graph")
	}
	midBlank := filepath.Join(dir, "mid.metis")
	// A blank line mid-file is a zero-degree vertex and must still count.
	if err := os.WriteFile(midBlank, []byte("3 1 001\n2 7\n1 7\n\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadShares(t, midBlank, 2, Options{}); err != nil {
		t.Fatalf("zero-degree final vertex rejected: %v", err)
	}
}

// TestEmptyFileLoads pins the degenerate case.
func TestEmptyFileLoads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.el")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	shares, err := loadShares(t, path, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(concat(shares)); n != 0 {
		t.Fatalf("empty file yields %d edges", n)
	}
}

// TestFormatNames pins the name/extension mapping.
func TestFormatNames(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Format
	}{
		{"kamsta", FormatKamsta}, {"kg", FormatKamsta}, {"EDGELIST", FormatEdgeList},
		{"gr", FormatGr}, {"metis", FormatMetis}, {"", FormatAuto}, {"auto", FormatAuto},
	} {
		got, err := ParseFormat(tc.name)
		if err != nil || got != tc.want {
			t.Fatalf("ParseFormat(%q) = %v, %v; want %v", tc.name, got, err, tc.want)
		}
	}
	if _, err := ParseFormat("tarball"); err == nil {
		t.Fatal("ParseFormat accepted junk")
	}
	for _, tc := range []struct {
		path string
		want Format
	}{
		{"a/b.kg", FormatKamsta}, {"x.GR", FormatGr}, {"y.metis", FormatMetis},
		{"z.graph", FormatMetis}, {"edges.txt", FormatEdgeList}, {"noext", FormatEdgeList},
	} {
		if got := DetectFormat(tc.path); got != tc.want {
			t.Fatalf("DetectFormat(%q) = %v, want %v", tc.path, got, tc.want)
		}
	}
}

// TestGrBothDirectionsTolerated pins that .gr files listing both arcs of an
// edge (as the real road instances do) load to the same graph as listing
// each edge once.
func TestGrBothDirectionsTolerated(t *testing.T) {
	dir := t.TempDir()
	once := filepath.Join(dir, "once.gr")
	both := filepath.Join(dir, "both.gr")
	if err := os.WriteFile(once, []byte("c road\np sp 3 2\na 1 2 7\na 2 3 9\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(both, []byte("c road\np sp 3 4\na 1 2 7\na 2 1 7\na 2 3 9\na 3 2 9\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := loadShares(t, once, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := loadShares(t, both, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(concat(a), concat(b)) {
		t.Fatalf("duplicate arcs change the loaded graph:\n%v\n%v", concat(a), concat(b))
	}
}
