package bench

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"testing"

	"kamsta"
	"kamsta/internal/core"
	"kamsta/internal/obs"
)

// TestVerifySweep runs cmd/mstverify's generated sweep at tiny scale: all
// six families, every distributed algorithm, an odd and an even world.
func TestVerifySweep(t *testing.T) {
	s := Scale{Ps: []int{3, 4}}
	var buf bytes.Buffer
	if err := Verify(context.Background(), &buf, s, 2, nil, 60, 200, 1); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	out := buf.String()
	// 6 families × 1 seed × 2 PE counts × the distributed algorithms.
	want := len(kamsta.DistributedAlgorithms()) * 12
	if !strings.HasSuffix(out, fmt.Sprintf("\n%d checks, 0 failures\n", want)) || strings.Contains(out, "FAIL") {
		t.Fatalf("want %d checks and no failure:\n%s", want, out)
	}
	for _, fam := range []string{"2D-GRID", "2D-RGG", "3D-RGG", "RHG", "GNM", "RMAT"} {
		if !strings.Contains(out, "oracle "+fam) || !strings.Contains(out, "ok   p=4   "+fam) {
			t.Errorf("family %s missing from the sweep:\n%s", fam, out)
		}
	}
}

// TestVerifyRunsTheExhibitsConfiguration: the sweep checks the paper's
// algorithms as the exhibits run them (algConfig), not at the bare defaults.
// On one seed of mstverify's default instances, Borůvka's jobs must have
// preprocessed locally and run distributed rounds.
func TestVerifyRunsTheExhibitsConfiguration(t *testing.T) {
	tr := kamsta.NewTrace()
	s := Scale{Ps: []int{4}, Trace: tr}
	if err := Verify(context.Background(), io.Discard, s, 1, []kamsta.Algorithm{kamsta.AlgBoruvka}, 600, 3000, 1); err != nil {
		t.Fatal(err)
	}
	rounds, pre := 0, 0
	for _, sp := range tr.Spans() {
		switch {
		case sp.Kind == obs.SpanRound:
			rounds++
		case sp.Kind == obs.SpanPhaseBegin && sp.Name == core.PhasePreprocess:
			pre++
		}
	}
	if rounds == 0 || pre == 0 {
		t.Fatalf("the sweep's Borůvka jobs left %d round spans and %d %s phases, want both", rounds, pre, core.PhasePreprocess)
	}
}

// TestVerifyFile: the file-backed sweep; a file the oracle cannot read is
// an error, not a count.
func TestVerifyFile(t *testing.T) {
	path := writeGraphFile(t)
	var buf bytes.Buffer
	algs := []kamsta.Algorithm{kamsta.AlgBoruvka, kamsta.AlgFilterBoruvka}
	if err := VerifyFile(context.Background(), &buf, Scale{Ps: []int{1, 4}}, 1, algs, path, "auto"); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "\n4 checks, 0 failures\n") {
		t.Fatalf("want 4 checks:\n%s", buf.String())
	}
	if err := VerifyFile(context.Background(), io.Discard, Scale{Ps: []int{2}}, 1, algs, path+".missing", "auto"); err == nil {
		t.Fatal("a missing file should fail the oracle")
	}
}

// TestVerifyCountsAMismatch forces a wrong answer — the oracle report of
// one instance is falsified between the two stages — and the cross-check
// must print a FAIL line per algorithm for that instance, count them, and
// still finish the sweep.
func TestVerifyCountsAMismatch(t *testing.T) {
	mp := newMachinePool(context.Background(), Scale{Ps: []int{2}})
	defer mp.Close()
	insts := []instance{
		{label: "good", src: kamsta.FromSpec(kamsta.GraphSpec{Family: kamsta.GNM, N: 60, M: 200, Seed: 1})},
		{label: "forged", src: kamsta.FromSpec(kamsta.GraphSpec{Family: kamsta.GNM, N: 60, M: 200, Seed: 2})},
	}
	if err := mp.oracle(io.Discard, 1, insts); err != nil {
		t.Fatal(err)
	}
	forged := *insts[1].want
	forged.TotalWeight++
	insts[1].want = &forged
	var buf bytes.Buffer
	algs := kamsta.DistributedAlgorithms()
	checks, failures, err := mp.crossCheck(&buf, 1, algs, insts)
	if err != nil || checks != 2*len(algs) || failures != len(algs) {
		t.Fatalf("checks, failures, err = %d, %d, %v; want %d, %d, nil\n%s", checks, failures, err, 2*len(algs), len(algs), buf.String())
	}
	out := buf.String()
	if strings.Count(out, "FAIL p=2 ") != len(algs) || !strings.Contains(out, "forged: weight") ||
		!strings.Contains(out, "ok   p=2   good") || strings.Contains(out, "ok   p=2   forged") {
		t.Fatalf("want one FAIL line per algorithm on the forged instance only:\n%s", out)
	}
}

// liveMachines is a Writer that, at every line the harness prints, records
// the pool's machine and checks that every machine seen before it is closed.
type liveMachines struct {
	t    *testing.T
	mp   *machinePool
	seen []*kamsta.Machine
}

func (lm *liveMachines) Write(p []byte) (int, error) {
	if m := lm.mp.m; m != nil && (len(lm.seen) == 0 || lm.seen[len(lm.seen)-1] != m) {
		lm.seen = append(lm.seen, m)
	}
	for _, m := range lm.seen[:max(0, len(lm.seen)-1)] {
		if m.Healthy() {
			lm.t.Errorf("a %d-PE machine is still live beside the %d-PE one", m.PEs(), lm.mp.m.PEs())
		}
	}
	return len(p), nil
}

// TestVerifyHoldsOneMachine: a sweep over several PE counts builds one
// machine per count — PE count outermost, the oracle's machine reused — and
// never holds two at once.
func TestVerifyHoldsOneMachine(t *testing.T) {
	mp := newMachinePool(context.Background(), Scale{Ps: []int{2, 3, 5}})
	defer mp.Close()
	lm := &liveMachines{t: t, mp: mp}
	var insts []instance
	for seed := uint64(1); seed <= 3; seed++ {
		insts = append(insts, instance{label: "gnm", src: kamsta.FromSpec(kamsta.GraphSpec{Family: kamsta.GNM, N: 60, M: 200, Seed: seed})})
	}
	if err := mp.oracle(lm, 1, insts); err != nil {
		t.Fatal(err)
	}
	if _, failures, err := mp.crossCheck(lm, 1, kamsta.DistributedAlgorithms(), insts); err != nil || failures != 0 {
		t.Fatalf("failures %d, err %v", failures, err)
	}
	if len(lm.seen) != 3 {
		t.Fatalf("sweep over 3 PE counts built %d machines, want 3", len(lm.seen))
	}
}
