package kamsta

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"kamsta/internal/comm"
	"kamsta/internal/gen"
	"kamsta/internal/graph"
	"kamsta/internal/graphio"
)

// writeSpec materializes a spec and writes it to a file in the given format.
func writeSpec(t *testing.T, spec GraphSpec, path string, f graphio.Format) {
	t.Helper()
	all, err := gen.Collect(context.Background(), comm.NewWorld(4), comm.JobConfig{}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := graphio.WriteFile(path, f, all); err != nil {
		t.Fatal(err)
	}
}

// TestFileMatchesSpec pins the generate/load unification: the
// same instance through FromSpec and through a written file produces the
// same forest, and the Kruskal reference agrees on the file path too.
func TestFileMatchesSpec(t *testing.T) {
	spec := GraphSpec{Family: RGG2D, N: 300, M: 1500, Seed: 13}
	path := filepath.Join(t.TempDir(), "g.kg")
	writeSpec(t, spec, path, graphio.FormatKamsta)

	m := newTestMachine(t, MachineConfig{PEs: 4})
	fromSpec := mustCompute(t, m, FromSpec(spec), WithAlgorithm(AlgFilterBoruvka))
	fromFile := mustCompute(t, m, FromFile(path), WithAlgorithm(AlgFilterBoruvka))
	if fromSpec.TotalWeight != fromFile.TotalWeight || fromSpec.NumEdges != fromFile.NumEdges {
		t.Fatalf("spec (%d,%d) vs file (%d,%d)",
			fromSpec.TotalWeight, fromSpec.NumEdges, fromFile.TotalWeight, fromFile.NumEdges)
	}
	if !reflect.DeepEqual(fromSpec.MSTEdges, fromFile.MSTEdges) {
		t.Fatal("forest edges differ between generated and file-backed runs")
	}
	if fromFile.InputVertices != fromSpec.InputVertices || fromFile.InputEdges != fromSpec.InputEdges {
		t.Fatalf("instance shape differs: file (%d,%d) vs spec (%d,%d)",
			fromFile.InputVertices, fromFile.InputEdges, fromSpec.InputVertices, fromSpec.InputEdges)
	}
	if fromFile.InputModeledSeconds <= 0 {
		t.Fatal("file-backed run reports no input time")
	}
	kruskal := mustCompute(t, newTestMachine(t, MachineConfig{PEs: 2}), FromFile(path), WithAlgorithm(AlgKruskal))
	if kruskal.TotalWeight != fromFile.TotalWeight || kruskal.NumEdges != fromFile.NumEdges {
		t.Fatalf("Kruskal on file disagrees: (%d,%d) vs (%d,%d)",
			kruskal.TotalWeight, kruskal.NumEdges, fromFile.TotalWeight, fromFile.NumEdges)
	}
}

// TestSourcesUniform runs every source kind through the one entry
// point on the same tiny graph.
func TestSourcesUniform(t *testing.T) {
	edges := []InputEdge{{U: 1, V: 2, W: 4}, {U: 2, V: 3, W: 1}, {U: 1, V: 3, W: 7}}
	path := filepath.Join(t.TempDir(), "tiny.el")
	if err := os.WriteFile(path, []byte("1 2 4\n2 3 1\n1 3 7\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	m := newTestMachine(t, MachineConfig{PEs: 3})
	for _, src := range []Source{FromEdges(edges), FromFile(path), FromFileFormat(path, "edgelist")} {
		rep := mustCompute(t, m, src)
		if rep.TotalWeight != 5 || rep.NumEdges != 2 {
			t.Fatalf("%s: weight=%d edges=%d want 5/2", src.Label(), rep.TotalWeight, rep.NumEdges)
		}
	}
}

// TestFileErrors pins that file problems surface as errors, not
// hangs or panics, through the public API.
func TestFileErrors(t *testing.T) {
	m := newTestMachine(t, MachineConfig{PEs: 3})
	ctx := context.Background()
	if _, err := m.Compute(ctx, FromFile(filepath.Join(t.TempDir(), "missing.kg"))); err == nil {
		t.Fatal("missing file should error")
	}
	if _, err := m.Compute(ctx, FromFileFormat("x.el", "tarball")); err == nil {
		t.Fatal("bad format name should error")
	}
	bad := filepath.Join(t.TempDir(), "bad.gr")
	if err := os.WriteFile(bad, []byte("a 1 2 zebra\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Compute(ctx, FromFile(bad), WithAlgorithm(AlgKruskal)); err == nil {
		t.Fatal("malformed file should error through the Kruskal path too")
	}
}

// TestTooManyEdgesRefused: an input of 2^32 or more directed edges, whose
// IDs would not fit the 32-bit Edge.ID, is refused with
// graph.ErrTooManyEdges before any edge is generated or read — from a spec
// and from a kamsta file's header alike.
func TestTooManyEdgesRefused(t *testing.T) {
	m := newTestMachine(t, MachineConfig{PEs: 3})
	ctx := context.Background()
	if _, err := m.Compute(ctx, FromSpec(GraphSpec{Family: GNM, N: 1 << 20, M: 1 << 31})); !errors.Is(err, graph.ErrTooManyEdges) {
		t.Errorf("GNM with M = 2^31: got %v, want graph.ErrTooManyEdges", err)
	}
	if err := (specSource{GraphSpec{Family: GNM, N: 1 << 20, M: 1<<31 - 1}}).validate(); err != nil {
		t.Errorf("GNM with M = 2^31 - 1: %v, want accepted", err)
	}
	// A header alone, promising 2^31 records.
	header := make([]byte, 24)
	copy(header, "KMSG")
	binary.LittleEndian.PutUint32(header[4:], 2)
	binary.LittleEndian.PutUint64(header[16:], 1<<31)
	path := filepath.Join(t.TempDir(), "huge.kg")
	if err := os.WriteFile(path, header, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Compute(ctx, FromFile(path)); !errors.Is(err, graph.ErrTooManyEdges) {
		t.Errorf("kamsta header with 2^31 records: got %v, want graph.ErrTooManyEdges", err)
	}
}

// TestWarmComputeAllocsPerEdge pins what a warm job allocates: the input is
// built in the world's arena slot its finished edges occupy, the forest and
// its decoded shares live in arena slots too, and the Report is put in
// order in the Machine's scratch, so little is left beyond the Report
// itself (24 bytes per forest edge). Each bound is 1.5 times what a warm
// 4-PE job allocated once the forest's path stopped allocating (1.7 and 0.9
// bytes per directed input edge; 14.8 and 7.9 before).
func TestWarmComputeAllocsPerEdge(t *testing.T) {
	if testing.Short() {
		t.Skip("six jobs of a quarter-million undirected edges each")
	}
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, tc := range []struct {
		spec  GraphSpec
		bound float64 // bytes allocated per directed input edge
	}{
		{GraphSpec{Family: RGG2D, N: 1 << 15, M: 1 << 18, Seed: 2}, 2.6},
		{GraphSpec{Family: GNM, N: 1 << 14, M: 1 << 18, Seed: 1}, 1.4},
	} {
		m, err := NewMachine(MachineConfig{PEs: 4, Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		best := math.Inf(1)
		for job := 0; job < 3; job++ { // the first job warms the arena
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			rep, err := m.Compute(context.Background(), FromSpec(tc.spec))
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if job > 0 {
				best = min(best, float64(after.TotalAlloc-before.TotalAlloc)/float64(rep.InputEdges))
			}
		}
		m.Close()
		t.Logf("%s: %.1f B allocated per directed input edge", tc.spec.Family, best)
		if best > tc.bound {
			t.Errorf("%s: a warm job allocated %.1f B per directed input edge, want ≤ %.1f", tc.spec.Family, best, tc.bound)
		}
	}
}

// TestWarmJobAllocatesItsReport: a warm job allocates its Report and a small
// fixed floor, on shared memory and over loopback TCP. Each algorithm runs on
// a small GNM and a small RGG instance, on a 4-PE machine and on a 4-PE
// machine whose ranks 2-3 live behind one in-process worker (both sides of
// the wire are in this process, so the worker's allocations count too);
// after two warm-up jobs, the best of three jobs allocates at most the
// Report's edge list plus 256 KB.
func TestWarmJobAllocatesItsReport(t *testing.T) {
	if testing.Short() {
		t.Skip("twenty-four jobs over two transports")
	}
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const floor = 256 << 10
	specs := []GraphSpec{
		{Family: GNM, N: 1 << 12, M: 1 << 15, Seed: 3},
		{Family: RGG2D, N: 1 << 13, M: 1 << 15, Seed: 4},
	}
	for _, tcp := range []bool{false, true} {
		var m *Machine
		if tcp {
			m = tcpMachine(t, 4, 1)
		} else {
			var err error
			if m, err = NewMachine(MachineConfig{PEs: 4, Threads: 1}); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { m.Close() })
		}
		for _, alg := range []Algorithm{AlgBoruvka, AlgFilterBoruvka} {
			for _, spec := range specs {
				src := FromSpec(spec)
				best, report := uint64(math.MaxUint64), uint64(0)
				for job := 0; job < 5; job++ { // two warm-up jobs, then three
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					rep, err := m.Compute(context.Background(), src, WithAlgorithm(alg))
					runtime.ReadMemStats(&after)
					if err != nil {
						t.Fatal(err)
					}
					if job >= 2 {
						best = min(best, after.TotalAlloc-before.TotalAlloc)
						report = uint64(cap(rep.MSTEdges)) * uint64(unsafe.Sizeof(InputEdge{}))
					}
				}
				t.Logf("tcp=%v %v %s: %d B per warm job, %d B of them the Report's edges", tcp, alg, spec.Family, best, report)
				if best > report+floor {
					t.Errorf("tcp=%v %v %s: a warm job allocated %d B, want ≤ %d (the Report's %d + %d)",
						tcp, alg, spec.Family, best, report+floor, report, floor)
				}
			}
		}
	}
}
