package comm

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunJobCancelExitsTogether: when a job's context is cancelled, every
// PE must abandon the job at the SAME collective boundary — the verdict is
// per-superstep, decided once by the pre-release combiner — and RunJob must
// return ctx.Err().
func TestRunJobCancelExitsTogether(t *testing.T) {
	const p = 8
	w := NewWorld(p)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var iters [p]int
	err := w.RunJob(ctx, nil, func(c *Comm) {
		for i := 0; i < 10000; i++ {
			if c.Rank() == 0 && i == 3 {
				cancel()
			}
			Barrier(c)
			iters[c.Rank()]++
		}
	})
	if err != context.Canceled {
		t.Fatalf("RunJob = %v, want context.Canceled", err)
	}
	for r := 1; r < p; r++ {
		if iters[r] != iters[0] {
			t.Fatalf("PEs exited at different supersteps: %v", iters)
		}
	}
	if iters[0] < 3 || iters[0] >= 10000 {
		t.Fatalf("cancellation window implausible: %d iterations", iters[0])
	}
}

// TestRunJobAlreadyCancelled: an expired context never starts the job.
func TestRunJobAlreadyCancelled(t *testing.T) {
	w := NewWorld(4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := atomic.Bool{}
	if err := w.RunJob(ctx, nil, func(c *Comm) { ran.Store(true) }); err != context.Canceled {
		t.Fatalf("RunJob = %v, want context.Canceled", err)
	}
	if ran.Load() {
		t.Fatal("job ran despite expired context")
	}
}

// TestRunJobLateCancelCompletes: a cancellation arriving after the job's
// last collective does not retract a completed result.
func TestRunJobLateCancelCompletes(t *testing.T) {
	w := NewWorld(4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sum := 0
	err := w.RunJob(ctx, nil, func(c *Comm) {
		s := Allreduce(c, c.Rank(), func(a, b int) int { return a + b })
		if c.Rank() == 0 {
			sum = s
		}
	})
	cancel()
	if err != nil {
		t.Fatalf("RunJob = %v, want nil", err)
	}
	if sum != 0+1+2+3 {
		t.Fatalf("sum = %d", sum)
	}
}

// TestPersistentWorldReuse: a started world runs many jobs on its parked
// PE goroutines with correct results, survives a cancelled job in between,
// and Close returns the goroutine count to baseline.
func TestPersistentWorldReuse(t *testing.T) {
	baseline := runtime.NumGoroutine()
	const p = 16
	w := NewWorld(p)
	w.Start()
	for job := 0; job < 5; job++ {
		var got int
		w.Run(func(c *Comm) {
			s := Allreduce(c, c.Rank()+job, func(a, b int) int { return a + b })
			if c.Rank() == 0 {
				got = s
			}
		})
		want := p*job + p*(p-1)/2
		if got != want {
			t.Fatalf("job %d: allreduce = %d, want %d", job, got, want)
		}
	}
	// A cancelled job must not wedge the parked PEs.
	ctx, cancel := context.WithCancel(context.Background())
	err := w.RunJob(ctx, nil, func(c *Comm) {
		for i := 0; i < 10000; i++ {
			if c.Rank() == 0 && i == 2 {
				cancel()
			}
			Barrier(c)
		}
	})
	if err != context.Canceled {
		t.Fatalf("cancelled job on persistent world: %v", err)
	}
	var after int
	w.Run(func(c *Comm) {
		s := Allreduce(c, 1, func(a, b int) int { return a + b })
		if c.Rank() == 0 {
			after = s
		}
	})
	if after != p {
		t.Fatalf("post-cancel job: %d, want %d", after, p)
	}
	w.Close()
	w.Close() // idempotent
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines alive, want <= %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond) // goroutine exit has no event to wait on
	}
}

// TestPersistentMatchesTransient: the same SPMD program gives identical
// modeled clocks and stats whether the world spawns per-run goroutines or
// dispatches to parked ones.
func TestPersistentMatchesTransient(t *testing.T) {
	prog := func(c *Comm) {
		x := Allreduce(c, c.Rank(), func(a, b int) int { return a + b })
		v := AllreduceVec(c, []int{c.Rank(), x}, func(a, b int) int { return a + b })
		_ = Alltoall(c, []int(nil), make([]int32, c.P()+1))
		_ = v
	}
	run := func(persistent bool) (float64, Stats) {
		w := NewWorld(8)
		if persistent {
			w.Start()
			defer w.Close()
		}
		w.Run(prog)
		return w.MaxClock(), w.TotalStats()
	}
	tc, ts := run(false)
	pc, ps := run(true)
	if tc != pc || ts != ps {
		t.Fatalf("transient (%v, %+v) != persistent (%v, %+v)", tc, ts, pc, ps)
	}
}

// TestObserverRankZeroOnly: events come only from rank 0's phases, in
// order, with the modeled clock attached.
func TestObserverRankZeroOnly(t *testing.T) {
	w := NewWorld(4)
	var events []Event
	err := w.RunJob(context.Background(), func(ev Event) { events = append(events, ev) }, func(c *Comm) {
		c.Phase("alpha", func() {
			Barrier(c)
		})
		c.EmitRound(1, 42)
		c.Phase("beta", func() {
			Barrier(c)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		kind  EventKind
		phase string
		round int
	}{
		{EventPhaseBegin, "alpha", 0},
		{EventPhaseEnd, "alpha", 0},
		{EventRound, "", 1},
		{EventPhaseBegin, "beta", 0},
		{EventPhaseEnd, "beta", 0},
	}
	if len(events) != len(want) {
		t.Fatalf("got %d events %v, want %d", len(events), events, len(want))
	}
	for i, ev := range events {
		if ev.Kind != want[i].kind || ev.Phase != want[i].phase || ev.Round != want[i].round {
			t.Fatalf("event %d = %+v, want %+v", i, ev, want[i])
		}
		if i > 0 && ev.Clock < events[i-1].Clock {
			t.Fatalf("clock went backwards at event %d: %v", i, events)
		}
	}
	if events[2].Vertices != 42 {
		t.Fatalf("round event payload: %+v", events[2])
	}
}
