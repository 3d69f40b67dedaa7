package kamsta

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"kamsta/internal/core"
)

// TestMachineReuseParity: jobs on a reused Machine must produce bit-for-bit
// the same Report as a fresh machine's first job — same forest, same modeled
// clock, same traffic. Three consecutive jobs guard against state leaking
// between jobs (clocks, phases, stats, boards).
func TestMachineReuseParity(t *testing.T) {
	spec := GraphSpec{Family: GNM, N: 1 << 10, M: 1 << 13, Seed: 42}
	want, err := newTestMachine(t, MachineConfig{PEs: 8}).Compute(context.Background(), FromSpec(spec))
	if err != nil {
		t.Fatal(err)
	}
	m := newTestMachine(t, MachineConfig{PEs: 8})
	for i := 0; i < 3; i++ {
		got, err := m.Compute(context.Background(), FromSpec(spec))
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if got.TotalWeight != want.TotalWeight || got.NumEdges != want.NumEdges {
			t.Fatalf("job %d: weight/edges %d/%d want %d/%d", i,
				got.TotalWeight, got.NumEdges, want.TotalWeight, want.NumEdges)
		}
		if math.Float64bits(got.ModeledSeconds) != math.Float64bits(want.ModeledSeconds) {
			t.Fatalf("job %d: modeled %v (bits %#x) want %v (bits %#x)", i,
				got.ModeledSeconds, math.Float64bits(got.ModeledSeconds),
				want.ModeledSeconds, math.Float64bits(want.ModeledSeconds))
		}
		if got.Stats != want.Stats {
			t.Fatalf("job %d: stats %+v want %+v", i, got.Stats, want.Stats)
		}
		if len(got.MSTEdges) != len(want.MSTEdges) {
			t.Fatalf("job %d: %d MST edges want %d", i, len(got.MSTEdges), len(want.MSTEdges))
		}
		for j := range got.MSTEdges {
			if got.MSTEdges[j] != want.MSTEdges[j] {
				t.Fatalf("job %d: MSTEdges[%d] = %+v want %+v", i, j, got.MSTEdges[j], want.MSTEdges[j])
			}
		}
	}
}

// TestMachineConcurrentCompute hammers one Machine from many goroutines
// (run under -race in CI): jobs must queue, never interleave, and each must
// return its own instance's result.
func TestMachineConcurrentCompute(t *testing.T) {
	specs := []GraphSpec{
		{Family: GNM, N: 300, M: 1200, Seed: 7},
		{Family: RGG2D, N: 400, M: 1600, Seed: 9},
		{Family: Grid2D, N: 400, Seed: 3},
	}
	m := newTestMachine(t, MachineConfig{PEs: 4})
	want := make([]uint64, len(specs))
	for i, spec := range specs {
		rep, err := m.Compute(context.Background(), FromSpec(spec))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rep.TotalWeight
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				k := (g + i) % len(specs)
				rep, err := m.Compute(context.Background(), FromSpec(specs[k]))
				if err != nil {
					errs <- err
					return
				}
				if rep.TotalWeight != want[k] {
					t.Errorf("goroutine %d job %d: weight %d want %d", g, i, rep.TotalWeight, want[k])
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// newTestMachine builds a Machine, closed when the test ends, or fails the
// test.
func newTestMachine(t *testing.T, cfg MachineConfig) *Machine {
	t.Helper()
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// waitForGoroutines polls until the live goroutine count drops to at most
// want, failing after a generous deadline.
func waitForGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC() // nudge finalizers; cheap in tests
		n := runtime.NumGoroutine()
		if n <= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still alive, want <= %d", n, want)
		}
		time.Sleep(5 * time.Millisecond) // goroutine exit has no event to wait on
	}
}

// TestMachineCancellationMidRun cancels a job from its own observer at the
// first distributed round: Compute must return ctx.Err(), the machine must
// stay usable (next job bit-identical to a fresh machine's), and closing it
// must return the goroutine count to baseline — no leaked PEs or watchers.
func TestMachineCancellationMidRun(t *testing.T) {
	baseline := runtime.NumGoroutine()
	// With a tiny base case this instance runs several distributed rounds
	// of many collectives each, so the cancellation fired at round 1 is
	// observed at one of the following collective boundaries, far from the
	// end of the job.
	spec := GraphSpec{Family: GNM, N: 1 << 12, M: 1 << 15, Seed: 5}
	m := newTestMachine(t, MachineConfig{PEs: 8})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rep, err := m.Compute(ctx, FromSpec(spec),
		WithCoreOptions(coreOptionsTinyBase()),
		WithObserver(func(ev Event) {
			if ev.Kind == EventRound && ev.Round == 1 {
				cancel()
			}
		}))
	if err != context.Canceled {
		t.Fatalf("cancelled Compute: rep=%v err=%v, want context.Canceled", rep, err)
	}
	// The machine survives cancellation: the next job matches a fresh
	// machine's exactly. The comparison uses the golden-test instance —
	// the modeled clock is pinned bit-deterministic there, so any state
	// leaking out of the aborted job would show up in the bits.
	golden := GraphSpec{Family: GNM, N: 1 << 10, M: 1 << 13, Seed: 42}
	fresh := newTestMachine(t, MachineConfig{PEs: 8})
	want, err := fresh.Compute(context.Background(), FromSpec(golden))
	if err != nil {
		t.Fatal(err)
	}
	fresh.Close()
	got, err := m.Compute(context.Background(), FromSpec(golden))
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalWeight != want.TotalWeight ||
		math.Float64bits(got.ModeledSeconds) != math.Float64bits(want.ModeledSeconds) {
		t.Fatalf("post-cancel job: weight %d modeled %v, want %d / %v",
			got.TotalWeight, got.ModeledSeconds, want.TotalWeight, want.ModeledSeconds)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	waitForGoroutines(t, baseline)
}

// TestMachineComputeQueue: a Compute waiting behind an in-flight job leaves
// the queue with ctx.Err() when its context expires.
func TestMachineComputeQueue(t *testing.T) {
	m := newTestMachine(t, MachineConfig{PEs: 4})
	defer m.Close()
	started := make(chan struct{})
	var once sync.Once
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := m.Compute(context.Background(), FromSpec(GraphSpec{Family: GNM, N: 2000, M: 12000, Seed: 1}),
			WithObserver(func(Event) { once.Do(func() { close(started) }) }))
		if err != nil {
			t.Errorf("background job: %v", err)
		}
	}()
	<-started // the first job is in flight and holds the machine
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.Compute(ctx, FromSpec(GraphSpec{Family: GNM, N: 100, M: 400, Seed: 2})); err != context.Canceled {
		t.Fatalf("queued Compute with cancelled ctx: %v, want context.Canceled", err)
	}
	<-done
}

// TestMachineClosed: Compute on a closed machine fails with
// ErrMachineClosed; Close is idempotent.
func TestMachineClosed(t *testing.T) {
	m := newTestMachine(t, MachineConfig{PEs: 2})
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Compute(context.Background(), FromEdges([]InputEdge{{U: 1, V: 2, W: 1}})); err != ErrMachineClosed {
		t.Fatalf("Compute on closed machine: %v, want ErrMachineClosed", err)
	}
}

// TestMachineObserverEvents: a job streams balanced phase events and round
// events with plausible payloads, in nondecreasing modeled time.
func TestMachineObserverEvents(t *testing.T) {
	m := newTestMachine(t, MachineConfig{PEs: 4})
	defer m.Close()
	var events []Event
	_, err := m.Compute(context.Background(),
		FromSpec(GraphSpec{Family: GNM, N: 600, M: 2400, Seed: 11}),
		WithCoreOptions(coreOptionsTinyBase()),
		WithObserver(func(ev Event) { events = append(events, ev) }))
	if err != nil {
		t.Fatal(err)
	}
	depth, rounds := 0, 0
	lastRound := 0
	for _, ev := range events {
		switch ev.Kind {
		case EventPhaseBegin:
			if ev.Phase == "" {
				t.Fatal("phase begin without a name")
			}
			depth++
		case EventPhaseEnd:
			depth--
			if depth < 0 {
				t.Fatal("phase end without begin")
			}
		case EventRound:
			rounds++
			if ev.Round != lastRound+1 || ev.Vertices <= 0 {
				t.Fatalf("round event %+v after round %d", ev, lastRound)
			}
			lastRound = ev.Round
		}
	}
	if depth != 0 {
		t.Fatalf("unbalanced phase events (depth %d)", depth)
	}
	if rounds == 0 {
		t.Fatal("no round events")
	}
	for i := 1; i < len(events); i++ {
		if events[i].Clock < events[i-1].Clock {
			t.Fatalf("event clocks went backwards: %v then %v", events[i-1], events[i])
		}
	}
}

// TestParseAlgorithm: case-insensitive resolution, and unknown names list
// the valid ones.
func TestParseAlgorithm(t *testing.T) {
	for _, a := range Algorithms() {
		got, err := ParseAlgorithm(string(a))
		if err != nil || got != a {
			t.Fatalf("ParseAlgorithm(%q) = %v, %v", a, got, err)
		}
	}
	if got, err := ParseAlgorithm("FILTERBORUVKA"); err != nil || got != AlgFilterBoruvka {
		t.Fatalf("case-insensitive parse: %v, %v", got, err)
	}
	_, err := ParseAlgorithm("primjarnik")
	if err == nil {
		t.Fatal("unknown algorithm should error")
	}
	for _, a := range Algorithms() {
		if !strings.Contains(err.Error(), string(a)) {
			t.Fatalf("error %q should list %q", err, a)
		}
	}
}

// TestZeroCoreOptionsAreThePapers: a job without WithCoreOptions and one
// with core.DefaultOptions() return the same Report — forest, modeled clock,
// traffic, structure and every phase but its wall time — on an instance
// large enough that local preprocessing, distributed rounds and their
// parallel-edge removal all run at the default base case.
func TestZeroCoreOptionsAreThePapers(t *testing.T) {
	m := newTestMachine(t, MachineConfig{PEs: 4})
	src := FromSpec(GraphSpec{Family: GNM, N: 1 << 13, M: 1 << 15, Seed: 5})
	for _, alg := range []Algorithm{AlgBoruvka, AlgFilterBoruvka} {
		var reps [2]*Report
		for i, opts := range [][]RunOption{{WithAlgorithm(alg)}, {WithAlgorithm(alg), WithCoreOptions(core.DefaultOptions())}} {
			rep, err := m.Compute(context.Background(), src, opts...)
			if err != nil {
				t.Fatalf("%s: %v", alg, err)
			}
			if rep.Rounds == 0 || rep.Phases[core.PhasePreprocess].Modeled == 0 || rep.Phases[core.PhaseRedistribute].Modeled == 0 {
				t.Fatalf("%s: %d rounds, phases %v: want preprocessing, rounds and redistribution", alg, rep.Rounds, rep.Phases)
			}
			rep.WallSeconds = 0
			for name, ph := range rep.Phases {
				ph.Wall = 0
				rep.Phases[name] = ph
			}
			reps[i] = rep
		}
		if !reflect.DeepEqual(reps[0], reps[1]) {
			t.Errorf("%s: the zero core.Options and DefaultOptions() differ:\n%+v\n%+v", alg, reps[0], reps[1])
		}
	}
}

// coreOptionsTinyBase shrinks the base case so even small test instances
// run several distributed rounds (round events, cancellation windows).
func coreOptionsTinyBase() core.Options {
	return core.Options{BaseCaseCap: 1, NoLocalPreprocessing: true}
}

// TestFIFOSemOrder: waiters are granted the job slot in strict arrival
// order. Each waiter is enqueued only after the previous one is visibly
// queued (pending), so the arrival order is deterministic; the grants must
// then come back in exactly that order.
func TestFIFOSemOrder(t *testing.T) {
	var s fifoSem
	if err := s.acquire(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	const n = 8
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := s.acquire(context.Background(), nil); err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			s.release()
		}(i)
		for s.pending() != i+1 {
			runtime.Gosched()
		}
	}
	s.release()
	wg.Wait()
	for i, got := range order {
		if got != i {
			t.Fatalf("grant order %v: position %d served waiter %d (not FIFO)", order, i, got)
		}
	}
}

// TestFIFOSemAbandon: a waiter whose context expires leaves the queue
// without disturbing the order of the others, and a grant racing an
// abandonment is passed on, never lost.
func TestFIFOSemAbandon(t *testing.T) {
	var s fifoSem
	if err := s.acquire(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errs := make(chan error, 1)
	go func() { errs <- s.acquire(ctx, nil) }()
	for s.pending() != 1 {
		runtime.Gosched()
	}
	cancel()
	if err := <-errs; err != context.Canceled {
		t.Fatalf("abandoned waiter returned %v, want context.Canceled", err)
	}
	if s.pending() != 0 {
		t.Fatalf("abandoned waiter still queued (pending %d)", s.pending())
	}
	s.release()

	// Hammer the grant/abandon race: many waiters with racing cancels; the
	// slot must survive (acquirable at the end) and no goroutine may hang.
	for round := 0; round < 200; round++ {
		if err := s.acquire(context.Background(), nil); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			cctx, ccancel := context.WithCancel(context.Background())
			go func() {
				defer wg.Done()
				if s.acquire(cctx, nil) == nil {
					s.release()
				}
			}()
			go ccancel()
		}
		s.release()
		wg.Wait()
	}
	if err := s.acquire(context.Background(), nil); err != nil {
		t.Fatalf("slot lost after races: %v", err)
	}
	s.release()
}

// TestMachineComputeFIFO: concurrent Compute callers run in submission
// order. The job slot is held directly while callers are enqueued one at a
// time, so the queue order is known. The order is read where it is decided:
// each job records itself at its first observer event, which fires while
// that job holds the slot — not after Compute returns, where the scheduler
// may reorder the callers.
func TestMachineComputeFIFO(t *testing.T) {
	m := newTestMachine(t, MachineConfig{PEs: 2})
	defer m.Close()
	edges := []InputEdge{{U: 1, V: 2, W: 3}, {U: 2, V: 3, W: 1}, {U: 3, V: 4, W: 2}}
	if err := m.jobs.acquire(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	const n = 6
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var started sync.Once
			running := WithObserver(func(Event) {
				started.Do(func() {
					mu.Lock()
					order = append(order, i)
					mu.Unlock()
				})
			})
			if _, err := m.Compute(context.Background(), FromEdges(edges), running); err != nil {
				t.Errorf("job %d: %v", i, err)
			}
		}(i)
		for m.jobs.pending() != i+1 {
			runtime.Gosched()
		}
	}
	m.jobs.release()
	wg.Wait()
	if len(order) != n {
		t.Fatalf("%d of %d jobs reported an observer event: %v", len(order), n, order)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("start order %v: position %d ran job %d (not FIFO)", order, i, got)
		}
	}
}
