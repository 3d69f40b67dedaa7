package kamsta

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kamsta/internal/comm"
	"kamsta/internal/faultinject"
	"kamsta/internal/obs"
)

// TestObservationPreservesGoldenBits pins the observability subsystem's
// first law: metrics, tracing and the observer are wall-side only. With all
// three enabled at once, the modeled clock and the traffic stats must be
// bit-identical to the golden references captured with observation off
// (golden_test.go).
func TestObservationPreservesGoldenBits(t *testing.T) {
	// A copy of bench.GoldenCases' rows: a package kamsta test cannot import
	// internal/bench, which imports kamsta.
	cases := []struct {
		name  string
		spec  GraphSpec
		alg   Algorithm
		bits  uint64
		stats comm.Stats
	}{
		{
			name: "gnm-boruvka",
			spec: GraphSpec{Family: GNM, N: 1 << 10, M: 1 << 13, Seed: 42},
			alg:  AlgBoruvka,
			bits: 0x3f477e5d0e5f2490,
			stats: comm.Stats{
				Messages: 336, Bytes: 1639168, Collectives: 96,
			},
		},
		{
			name: "rgg2d-filter",
			spec: GraphSpec{Family: RGG2D, N: 1 << 10, M: 1 << 13, Seed: 7},
			alg:  AlgFilterBoruvka,
			bits: 0x3f69ca79e9d980a0,
			stats: comm.Stats{
				Messages: 2288, Bytes: 1888008, Collectives: 504,
			},
		},
	}
	reg := NewMetrics()
	tr := NewTrace()
	m := newTestMachine(t, MachineConfig{PEs: 8, Metrics: reg})
	defer m.Close()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := m.Compute(context.Background(), FromSpec(tc.spec),
				WithAlgorithm(tc.alg),
				WithTrace(tr),
				WithObserver(func(Event) {}))
			if err != nil {
				t.Fatal(err)
			}
			if got := math.Float64bits(rep.ModeledSeconds); got != tc.bits {
				t.Errorf("observed ModeledSeconds bits %#x, want %#x — observation perturbed the modeled clock",
					got, tc.bits)
			}
			if rep.Stats != tc.stats {
				t.Errorf("observed Stats %+v, want %+v", rep.Stats, tc.stats)
			}
		})
	}
	if n := tr.Dropped(); n != 0 {
		t.Errorf("trace dropped %d spans on golden-size jobs", n)
	}
	if len(tr.Spans()) == 0 {
		t.Error("trace collected no spans")
	}
}

// TestTraceSpanStreamOrdering checks the structural invariants of the span
// stream: per rank, phase Begin/End spans balance, round spans carry
// nondecreasing round numbers, and the modeled clock stamped on collective
// spans never runs backwards.
func TestTraceSpanStreamOrdering(t *testing.T) {
	tr := NewTrace()
	m := newTestMachine(t, MachineConfig{PEs: 4})
	defer m.Close()
	_, err := m.Compute(context.Background(),
		FromSpec(GraphSpec{Family: GNM, N: 600, M: 2400, Seed: 11}),
		WithCoreOptions(coreOptionsTinyBase()),
		WithTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans collected")
	}
	depth := map[int32]int{}
	lastRound := map[int32]int32{}
	lastClock := map[int32]float64{}
	for _, s := range spans {
		switch s.Kind {
		case obs.SpanPhaseBegin:
			if s.Name == "" {
				t.Fatal("phase begin span without a name")
			}
			depth[s.Rank]++
		case obs.SpanPhaseEnd:
			depth[s.Rank]--
			if depth[s.Rank] < 0 {
				t.Fatalf("rank %d: phase end before begin", s.Rank)
			}
		case obs.SpanRound:
			if s.Round < lastRound[s.Rank] {
				t.Fatalf("rank %d: round %d after round %d", s.Rank, s.Round, lastRound[s.Rank])
			}
			lastRound[s.Rank] = s.Round
		case obs.SpanCollective:
			if s.Dur < 0 {
				t.Fatalf("rank %d: negative collective duration %d", s.Rank, s.Dur)
			}
			// The modeled clock is nondecreasing per rank except at the
			// machine's explicit reset between input materialization and
			// the algorithm, which restarts it at exactly zero.
			if s.Clock < lastClock[s.Rank] && s.Clock != 0 {
				t.Fatalf("rank %d: modeled clock ran backwards: %v after %v", s.Rank, s.Clock, lastClock[s.Rank])
			}
			lastClock[s.Rank] = s.Clock
		default:
			t.Fatalf("unknown span kind %d", s.Kind)
		}
	}
	for rank, d := range depth {
		if d != 0 {
			t.Errorf("rank %d: %d unbalanced phase spans", rank, d)
		}
	}
}

// silentObserver records events until the caller marks the job done; any
// event delivered after that is a containment violation (a zombie PE
// leaking notifications past Compute's return).
type silentObserver struct {
	mu     sync.Mutex
	events []Event
	done   atomic.Bool
	late   atomic.Int64
}

func (o *silentObserver) observe(ev Event) {
	if o.done.Load() {
		o.late.Add(1)
		return
	}
	o.mu.Lock()
	o.events = append(o.events, ev)
	o.mu.Unlock()
}

// finish marks the job done and, after a grace window for would-be zombie
// notifications, reports any late events.
func (o *silentObserver) finish(t *testing.T, path string) []Event {
	t.Helper()
	o.done.Store(true)
	// No event says a zombie will never notify: a late one gets this window.
	time.Sleep(30 * time.Millisecond)
	if n := o.late.Load(); n != 0 {
		t.Errorf("%s: %d observer events delivered after Compute returned", path, n)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.events
}

// checkEventOrder verifies the (phase, round) ordering contract on a
// recorded event stream.
func checkEventOrder(t *testing.T, path string, events []Event) {
	t.Helper()
	depth, lastRound, lastClock := 0, 0, 0.0
	for _, ev := range events {
		if ev.Clock < lastClock {
			t.Fatalf("%s: clock ran backwards: %v after %v", path, ev.Clock, lastClock)
		}
		lastClock = ev.Clock
		switch ev.Kind {
		case EventPhaseBegin:
			depth++
		case EventPhaseEnd:
			if depth--; depth < 0 {
				t.Fatalf("%s: phase end before begin", path)
			}
		case EventRound:
			if ev.Round < lastRound {
				t.Fatalf("%s: round %d after round %d", path, ev.Round, lastRound)
			}
			lastRound = ev.Round
		}
	}
}

// TestObserverSilentAfterReturn drives the three ways a job can end —
// completion, cancellation mid-round, and a contained PE fault — and
// verifies that no observer event is ever delivered after Compute returns,
// and that what was delivered is (phase, round)-ordered.
func TestObserverSilentAfterReturn(t *testing.T) {
	spec := GraphSpec{Family: GNM, N: 600, M: 2400, Seed: 11}
	m := newTestMachine(t, MachineConfig{PEs: 4})
	defer m.Close()

	t.Run("completed", func(t *testing.T) {
		o := &silentObserver{}
		_, err := m.Compute(context.Background(), FromSpec(spec),
			WithCoreOptions(coreOptionsTinyBase()), WithObserver(o.observe))
		if err != nil {
			t.Fatal(err)
		}
		events := o.finish(t, "completed")
		if len(events) == 0 {
			t.Fatal("completed: no events")
		}
		checkEventOrder(t, "completed", events)
	})

	t.Run("cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		o := &silentObserver{}
		_, err := m.Compute(ctx, FromSpec(spec),
			WithCoreOptions(coreOptionsTinyBase()),
			WithObserver(func(ev Event) {
				o.observe(ev)
				if ev.Kind == EventRound && ev.Round >= 1 {
					cancel()
				}
			}))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled: err = %v, want context.Canceled", err)
		}
		checkEventOrder(t, "cancelled", o.finish(t, "cancelled"))
	})

	t.Run("faulted", func(t *testing.T) {
		o := &silentObserver{}
		plan := faultinject.NewPlan(&faultinject.Rule{
			Site: faultinject.SiteCollective, Rank: 3, Occurrence: 5,
			Action: faultinject.ActPanic,
		})
		_, err := m.Compute(context.Background(), FromSpec(spec),
			WithCoreOptions(coreOptionsTinyBase()),
			WithFaultInjection(plan),
			WithObserver(o.observe))
		var je *JobError
		if !errors.As(err, &je) {
			t.Fatalf("faulted: err = %v, want *JobError", err)
		}
		checkEventOrder(t, "faulted", o.finish(t, "faulted"))
	})
}

// TestObserverConcurrentCallers hammers one observed Machine from several
// goroutines (run under -race in CI): every job gets its own observer and
// trace, and each must see only its own, ordered event stream with nothing
// delivered after its Compute returns.
func TestObserverConcurrentCallers(t *testing.T) {
	reg := NewMetrics()
	m := newTestMachine(t, MachineConfig{PEs: 4, Metrics: reg})
	defer m.Close()
	spec := GraphSpec{Family: GNM, N: 600, M: 2400, Seed: 11}
	const callers = 4
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for job := 0; job < 2; job++ {
				o := &silentObserver{}
				tr := NewTrace()
				_, err := m.Compute(context.Background(), FromSpec(spec),
					WithCoreOptions(coreOptionsTinyBase()),
					WithTrace(tr), WithObserver(o.observe))
				if err != nil {
					errs[i] = err
					return
				}
				o.done.Store(true)
				if n := o.late.Load(); n != 0 {
					errs[i] = errors.New("late observer events")
					return
				}
				o.mu.Lock()
				events := append([]Event(nil), o.events...)
				o.mu.Unlock()
				checkEventOrder(t, "concurrent", events)
				if len(tr.Spans()) == 0 {
					errs[i] = errors.New("no spans collected")
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("caller %d: %v", i, err)
		}
	}
}

// benchGoldenJob measures one golden-instance job end to end on a warm
// persistent machine.
func benchGoldenJob(b *testing.B, cfg MachineConfig, opts ...RunOption) {
	m, err := NewMachine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	src := FromSpec(GraphSpec{Family: GNM, N: 1 << 10, M: 1 << 13, Seed: 42})
	if _, err := m.Compute(context.Background(), src); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Compute(context.Background(), src, opts...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGoldenJobBare is the no-observation baseline for the overhead
// budget; compare against BenchmarkGoldenJobObserved (target: <2% wall
// overhead with metrics enabled).
func BenchmarkGoldenJobBare(b *testing.B) {
	benchGoldenJob(b, MachineConfig{PEs: 8})
}

// BenchmarkGoldenJobObserved runs the same job with the full metrics
// pipeline enabled (job series + per-PE substrate series).
func BenchmarkGoldenJobObserved(b *testing.B) {
	benchGoldenJob(b, MachineConfig{PEs: 8, Metrics: NewMetrics()})
}
