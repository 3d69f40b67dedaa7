package kamsta

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"kamsta/internal/comm"
	"kamsta/internal/faultinject"
)

// chaosGoldenCase pins a (spec, algorithm) pair to its bit-exact modeled
// clock — the same references TestModeledTimeGolden pins. The chaos suite's
// core claim is that the job immediately following ANY recovered fault
// reproduces these bits exactly: no arena, scratch, board, clock or stats
// state leaks out of an aborted job.
type chaosGoldenCase struct {
	name string
	spec GraphSpec
	alg  Algorithm
	bits uint64
}

// A copy of bench.GoldenCases' rows: a package kamsta test cannot import
// internal/bench, which imports kamsta.
var chaosGolden = []chaosGoldenCase{
	{"gnm-boruvka", GraphSpec{Family: GNM, N: 1 << 10, M: 1 << 13, Seed: 42}, AlgBoruvka, 0x3f477e5d0e5f2490},
	{"rgg2d-filter", GraphSpec{Family: RGG2D, N: 1 << 10, M: 1 << 13, Seed: 7}, AlgFilterBoruvka, 0x3f69ca79e9d980a0},
}

// checkGolden runs one fault-free golden job on m and fails the test unless
// the modeled clock matches the pinned bits exactly.
func checkGolden(t *testing.T, m *Machine, gc chaosGoldenCase, when string) {
	t.Helper()
	rep, err := m.Compute(context.Background(), FromSpec(gc.spec), WithAlgorithm(gc.alg))
	if err != nil {
		t.Fatalf("%s: golden %s job: %v", when, gc.name, err)
	}
	if got := math.Float64bits(rep.ModeledSeconds); got != gc.bits {
		t.Fatalf("%s: golden %s clock bits %#x, want %#x — state leaked out of the aborted job",
			when, gc.name, got, gc.bits)
	}
}

// TestNewMachineValidation: invalid machine configs are errors, not panics
// deep inside world construction.
func TestNewMachineValidation(t *testing.T) {
	bad := []MachineConfig{
		{PEs: -1},
		{PEs: 1<<16 + 1},
		{PEs: 4, Threads: -2},
		{PEs: 4, Cost: comm.CostModel{Alpha: math.NaN()}},
		{PEs: 4, Cost: comm.CostModel{Beta: math.Inf(1)}},
		{PEs: 4, Cost: comm.CostModel{Compute: -1}},
	}
	for i, cfg := range bad {
		if m, err := NewMachine(cfg); err == nil {
			m.Close()
			t.Errorf("config %d (%+v): NewMachine succeeded, want error", i, cfg)
		} else if err := cfg.Validate(); err == nil {
			t.Errorf("config %d: Validate passed a config NewMachine rejected", i)
		}
	}
	// Zero values mean defaults, not errors.
	m, err := NewMachine(MachineConfig{})
	if err != nil {
		t.Fatalf("zero config: %v", err)
	}
	defer m.Close()
	if m.PEs() != 4 || m.Threads() != 1 {
		t.Fatalf("defaults: PEs=%d Threads=%d", m.PEs(), m.Threads())
	}
	if !m.Healthy() {
		t.Fatal("fresh machine should be healthy")
	}
}

// TestChaosScheduleSweep is the seeded chaos harness: many random fault
// schedules (panics and delays at seeded collective boundaries), each
// followed by a golden job whose modeled clock must be bit-identical to the
// fault-free reference. Run under -race in CI; every schedule is replayable
// from its seed alone.
func TestChaosScheduleSweep(t *testing.T) {
	seeds := 120
	if testing.Short() {
		seeds = 16
	}
	baseline := runtime.NumGoroutine()
	m := newTestMachine(t, MachineConfig{PEs: 8})
	faulted := 0
	for seed := 1; seed <= seeds; seed++ {
		plan := faultinject.RandomPlan(uint64(seed), faultinject.RandomSpec{
			PEs:           8,
			MaxOccurrence: 96,
			MaxRules:      3,
		})
		gc := chaosGolden[seed%len(chaosGolden)]
		_, err := m.Compute(context.Background(), FromSpec(gc.spec),
			WithAlgorithm(gc.alg),
			WithFaultInjection(plan),
			WithStallTimeout(30*time.Second))
		if err != nil {
			var je *JobError
			if !errors.As(err, &je) {
				t.Fatalf("seed %d: err = %v (%T), want *JobError or nil", seed, err, err)
			}
			if je.Kind != FaultPanic {
				t.Fatalf("seed %d: fault kind %v, want panic (schedule injects only panics and small delays)", seed, je.Kind)
			}
			faulted++
		}
		if !m.Healthy() {
			t.Fatalf("seed %d: machine unhealthy after recovery", seed)
		}
		checkGolden(t, m, gc, fmt.Sprintf("seed %d", seed))
	}
	t.Logf("%d/%d schedules faulted, %d transparent rebuilds", faulted, seeds, m.Rebuilds())
	if faulted == 0 {
		t.Fatal("no schedule injected a fault — the sweep exercised nothing")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	waitForGoroutines(t, baseline)
}

// TestAbortMidIngestGoldenClock pins arena and scratch reuse after a job
// aborted in its earliest supersteps — during generation and the
// distributed sort, where the round arenas are hottest. Each injected panic
// lands at a different low collective occurrence; the golden job right after
// must reproduce the reference bits exactly.
func TestAbortMidIngestGoldenClock(t *testing.T) {
	m := newTestMachine(t, MachineConfig{PEs: 8})
	defer m.Close()
	for _, occ := range []int{0, 1, 3, 6, 10} {
		for _, gc := range chaosGolden {
			plan := faultinject.NewPlan(&faultinject.Rule{
				Site:       faultinject.SiteCollective,
				Rank:       occ % 8,
				Occurrence: occ,
				Action:     faultinject.ActPanic,
			})
			_, err := m.Compute(context.Background(), FromSpec(gc.spec),
				WithAlgorithm(gc.alg), WithFaultInjection(plan))
			var je *JobError
			if !errors.As(err, &je) {
				t.Fatalf("occ %d %s: err = %v, want *JobError", occ, gc.name, err)
			}
			if je.Rank != occ%8 || je.Kind != FaultPanic {
				t.Fatalf("occ %d %s: JobError = %+v", occ, gc.name, je)
			}
			checkGolden(t, m, gc, fmt.Sprintf("occ %d", occ))
		}
	}
}

// TestCancelMidJobGoldenClock pins the same reuse property for the
// cancellation path: a job cancelled from its observer at the first
// distributed round leaves no trace in the next job's modeled bits.
func TestCancelMidJobGoldenClock(t *testing.T) {
	m := newTestMachine(t, MachineConfig{PEs: 8})
	defer m.Close()
	gc := chaosGolden[0]
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := m.Compute(ctx, FromSpec(GraphSpec{Family: GNM, N: 1 << 12, M: 1 << 15, Seed: 5}),
		WithCoreOptions(coreOptionsTinyBase()),
		WithObserver(func(ev Event) {
			if ev.Kind == EventRound && ev.Round == 1 {
				cancel()
			}
		}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled job: %v, want context.Canceled", err)
	}
	checkGolden(t, m, gc, "after cancel")
}

// TestStallRecoveryAndRebuild: an injected straggler outlasting the stall
// timeout must surface as a FaultStall with Rebuilt set, bump the rebuild
// counter, and leave a healthy machine producing golden bits.
func TestStallRecoveryAndRebuild(t *testing.T) {
	baseline := runtime.NumGoroutine()
	m := newTestMachine(t, MachineConfig{PEs: 8})
	gc := chaosGolden[0]
	plan := faultinject.NewPlan(&faultinject.Rule{
		Site: faultinject.SiteCollective, Rank: 2, Occurrence: 4,
		Action: faultinject.ActDelay, Delay: 1500 * time.Millisecond,
	})
	_, err := m.Compute(context.Background(), FromSpec(gc.spec),
		WithAlgorithm(gc.alg),
		WithFaultInjection(plan),
		WithStallTimeout(100*time.Millisecond))
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("stalled job: err = %v (%T), want *JobError", err, err)
	}
	if je.Kind != FaultStall {
		t.Fatalf("fault kind %v, want stall", je.Kind)
	}
	if !je.Rebuilt {
		t.Fatal("a stall poisons the world; JobError.Rebuilt should be set")
	}
	if len(je.Missing) == 0 {
		t.Fatalf("stall diagnosis lists no missing ranks: %+v", je)
	}
	if m.Rebuilds() < 1 {
		t.Fatalf("Rebuilds() = %d, want >= 1", m.Rebuilds())
	}
	if !m.Healthy() {
		t.Fatal("machine should be healthy after the transparent rebuild")
	}
	checkGolden(t, m, gc, "after stall rebuild")
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// The delayed zombie PE wakes, hits the poisoned barrier of its dead
	// world and exits; everything must drain back to baseline.
	waitForGoroutines(t, baseline)
}

// writeChaosEdgeFile writes a small connected edge-list instance for the
// file-ingestion chaos tests.
func writeChaosEdgeFile(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	const n = 64
	for i := uint64(1); i < n; i++ {
		fmt.Fprintf(&sb, "%d %d %d\n", i, i+1, i%13+1)
	}
	fmt.Fprintf(&sb, "%d 1 7\n", uint64(n))
	for i := uint64(1); i+17 <= n; i += 5 {
		fmt.Fprintf(&sb, "%d %d %d\n", i, i+17, i%11+2)
	}
	path := filepath.Join(t.TempDir(), "chaos.txt")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestInjectedIOErrorSurfacesAsError: a failed graph read is an input error,
// not a fault — every PE leaves the job together, Compute returns a plain
// error mentioning the injection, and the machine needs no recovery.
func TestInjectedIOErrorSurfacesAsError(t *testing.T) {
	m := newTestMachine(t, MachineConfig{PEs: 4})
	defer m.Close()
	path := writeChaosEdgeFile(t)
	src := FromFileFormat(path, "edgelist")
	want, err := m.Compute(context.Background(), src)
	if err != nil {
		t.Fatalf("reference load: %v", err)
	}
	plan := faultinject.NewPlan(&faultinject.Rule{
		Site: faultinject.SiteGraphRead, Rank: 1, Occurrence: 0,
		Action: faultinject.ActIOError,
	})
	_, err = m.Compute(context.Background(), src, WithFaultInjection(plan))
	if err == nil {
		t.Fatal("injected read error did not surface")
	}
	var je *JobError
	if errors.As(err, &je) {
		t.Fatalf("read error surfaced as a fault (%v); it should be a plain input error", je)
	}
	if !strings.Contains(err.Error(), "injected I/O error") {
		t.Fatalf("error %q should carry the injected read failure", err)
	}
	if !m.Healthy() {
		t.Fatal("a failed read must not hurt the machine")
	}
	got, err := m.Compute(context.Background(), src)
	if err != nil || got.TotalWeight != want.TotalWeight {
		t.Fatalf("post-error load: rep=%+v err=%v, want weight %d", got, err, want.TotalWeight)
	}
}

// TestChaosFileIngestion sweeps seeded schedules over the file-ingestion
// path (read errors, read-site panics, collective faults); after every
// schedule the same file must load to the same forest.
func TestChaosFileIngestion(t *testing.T) {
	seeds := 32
	if testing.Short() {
		seeds = 8
	}
	m := newTestMachine(t, MachineConfig{PEs: 4})
	defer m.Close()
	path := writeChaosEdgeFile(t)
	src := FromFileFormat(path, "edgelist")
	want, err := m.Compute(context.Background(), src)
	if err != nil {
		t.Fatalf("reference load: %v", err)
	}
	for seed := 1; seed <= seeds; seed++ {
		plan := faultinject.RandomPlan(uint64(seed), faultinject.RandomSpec{
			PEs:           4,
			MaxOccurrence: 24,
			MaxRules:      2,
			Reads:         true,
		})
		_, err := m.Compute(context.Background(), src, WithFaultInjection(plan),
			WithStallTimeout(30*time.Second))
		if err != nil {
			var je *JobError
			if !errors.As(err, &je) && !strings.Contains(err.Error(), "injected I/O error") {
				t.Fatalf("seed %d: unexpected error class: %v", seed, err)
			}
		}
		if !m.Healthy() {
			t.Fatalf("seed %d: machine unhealthy", seed)
		}
		got, err := m.Compute(context.Background(), src)
		if err != nil {
			t.Fatalf("seed %d: post-fault load: %v", seed, err)
		}
		if got.TotalWeight != want.TotalWeight || got.NumEdges != want.NumEdges {
			t.Fatalf("seed %d: post-fault forest %d/%d, want %d/%d",
				seed, got.TotalWeight, got.NumEdges, want.TotalWeight, want.NumEdges)
		}
	}
}
