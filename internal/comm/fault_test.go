package comm

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"kamsta/internal/faultinject"
)

func add(a, b int) int { return a + b }

// sumJob is the trivial health probe used between faults: an Allreduce whose
// result proves every PE participated.
func sumJob(t *testing.T, w *World) {
	t.Helper()
	var got atomic.Int64
	if err := w.RunJob(context.Background(), nil, func(c *Comm) {
		n := Allreduce(c, 1, add)
		if c.Rank() == 0 {
			got.Store(int64(n))
		}
	}); err != nil {
		t.Fatalf("health job after fault: %v", err)
	}
	if int(got.Load()) != w.p {
		t.Fatalf("health job: sum %d want %d", got.Load(), w.p)
	}
}

// TestContainedPanicReturnsJobError: a panic on one PE mid-job must surface
// as a structured *JobError — not crash the process — with every other PE
// unwinding the same superstep, and the world staying healthy for reuse.
func TestContainedPanicReturnsJobError(t *testing.T) {
	const p = 8
	w := NewWorld(p)
	w.Start()
	defer w.Close()
	var exited atomic.Int32
	err := w.RunJob(context.Background(), nil, func(c *Comm) {
		defer exited.Add(1)
		Allreduce(c, 1, add)
		Allreduce(c, 2, add)
		if c.Rank() == 3 {
			panic("boom at rank 3")
		}
		for {
			Allreduce(c, 3, add) // the verdict unwinds everyone here
		}
	})
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("err = %v (%T), want *JobError", err, err)
	}
	if je.Kind != FaultPanic || je.Rank != 3 {
		t.Fatalf("JobError = %+v, want FaultPanic at rank 3", je)
	}
	if je.PanicValue != "boom at rank 3" {
		t.Fatalf("PanicValue = %v", je.PanicValue)
	}
	if !strings.Contains(je.Stack, "fault_test") {
		t.Fatalf("Stack should show the panic site, got:\n%s", je.Stack)
	}
	if got := exited.Load(); got != p {
		t.Fatalf("%d PEs exited, want %d", got, p)
	}
	if w.Broken() {
		t.Fatal("contained panic must not break the world")
	}
	sumJob(t, w)
}

// TestPanicAfterLastCollective: a fault striking after the job's final
// algorithm collective is still contained — the close-out superstep
// guarantees a barrier where the abort verdict can release the world.
func TestPanicAfterLastCollective(t *testing.T) {
	const p = 4
	w := NewWorld(p)
	done := make(chan error, 1)
	go func() {
		done <- w.RunJob(context.Background(), nil, func(c *Comm) {
			Allreduce(c, 1, add)
			if c.Rank() == 1 {
				panic("after the last collective")
			}
		})
	}()
	select {
	case err := <-done:
		var je *JobError
		if !errors.As(err, &je) || je.Rank != 1 {
			t.Fatalf("err = %v, want *JobError at rank 1", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("job deadlocked: tail panic was not drained")
	}
	if w.Broken() {
		t.Fatal("world should survive a tail panic")
	}
	sumJob(t, w)
}

// TestCombineClosurePanicContained: a panic inside a collective's combine
// closure runs on the pre-release combiner while every PE is blocked in the
// barrier; it must be contained like any PE panic, with the release still
// happening.
func TestCombineClosurePanicContained(t *testing.T) {
	const p = 4
	w := NewWorld(p)
	err := w.RunJob(context.Background(), nil, func(c *Comm) {
		Allreduce(c, 1, add)
		Allreduce(c, 1, func(a, b int) int { panic("combine boom") })
		Allreduce(c, 1, add)
	})
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("err = %v (%T), want *JobError", err, err)
	}
	if je.Kind != FaultPanic || je.PanicValue != "combine boom" {
		t.Fatalf("JobError = %+v", je)
	}
	if w.Broken() {
		t.Fatal("combine panic must not break the world")
	}
	sumJob(t, w)
}

// TestLostPEPoisonsWorld: a goroutine lost to runtime.Goexit cannot be
// unwound cooperatively — the world must be poisoned so the remaining PEs
// escape the barrier, the job must report FaultLostPE, and the broken world
// must refuse further jobs.
func TestLostPEPoisonsWorld(t *testing.T) {
	const p = 4
	w := NewWorld(p)
	err := w.RunJob(context.Background(), nil, func(c *Comm) {
		Allreduce(c, 1, add)
		if c.Rank() == 2 {
			runtime.Goexit()
		}
		for {
			Allreduce(c, 1, add)
		}
	})
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("err = %v (%T), want *JobError", err, err)
	}
	if je.Kind != FaultLostPE || je.Rank != 2 {
		t.Fatalf("JobError = %+v, want FaultLostPE at rank 2", je)
	}
	if !w.Broken() {
		t.Fatal("lost PE must poison the world")
	}
	if err := w.RunJob(context.Background(), nil, func(c *Comm) {}); !errors.Is(err, ErrBroken) {
		t.Fatalf("job on broken world: %v, want ErrBroken", err)
	}
}

// TestStallDetection: a PE that never reaches the next barrier must trip the
// watchdog, which reports exactly which ranks arrived and which did not, and
// poisons the world.
func TestStallDetection(t *testing.T) {
	const p = 4
	w := NewWorld(p)
	release := make(chan struct{})
	err := w.RunJobCfg(context.Background(), JobConfig{StallTimeout: 50 * time.Millisecond}, func(c *Comm) {
		Allreduce(c, 1, add)
		if c.Rank() == 1 {
			<-release // stuck in "compute", never arrives
		}
		Allreduce(c, 1, add)
	})
	close(release) // let the straggler unwind via the poisoned barrier
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("err = %v (%T), want *JobError", err, err)
	}
	if je.Kind != FaultStall || je.Rank != -1 {
		t.Fatalf("JobError = %+v, want FaultStall", je)
	}
	if len(je.Missing) != 1 || je.Missing[0] != 1 {
		t.Fatalf("Missing = %v, want [1]", je.Missing)
	}
	if len(je.Arrived) != p-1 {
		t.Fatalf("Arrived = %v, want the other %d ranks", je.Arrived, p-1)
	}
	if !strings.Contains(err.Error(), "stalled") {
		t.Fatalf("error text %q should mention the stall", err)
	}
	if !w.Broken() {
		t.Fatal("a stall must poison the world")
	}
}

// TestNoStallOnHealthyJob: the watchdog must not fire on a job that keeps
// completing collectives, even one running longer than the timeout.
func TestNoStallOnHealthyJob(t *testing.T) {
	const p = 4
	w := NewWorld(p)
	err := w.RunJobCfg(context.Background(), JobConfig{StallTimeout: 100 * time.Millisecond}, func(c *Comm) {
		// Rank 0's clock decides for everyone, so all ranks issue the same
		// number of collectives (per-rank clocks would let one rank leave
		// while another starts one more Allreduce).
		deadline := time.Now().Add(300 * time.Millisecond)
		for {
			more := 0
			if c.Rank() == 0 && time.Now().Before(deadline) {
				more = 1
			}
			if Allreduce(c, more, add) == 0 {
				break
			}
			time.Sleep(5 * time.Millisecond) // slow but progressing: the job under test
		}
	})
	if err != nil {
		t.Fatalf("healthy slow job: %v", err)
	}
	if w.Broken() {
		t.Fatal("watchdog fired on a progressing job")
	}
}

// TestInjectedPanicContained: a deterministic injected panic at a chosen
// (rank, occurrence) collective site behaves exactly like an organic panic —
// contained, attributed, world reusable.
func TestInjectedPanicContained(t *testing.T) {
	const p = 4
	w := NewWorld(p)
	w.Start()
	defer w.Close()
	rule := &faultinject.Rule{Site: faultinject.SiteCollective, Rank: 2, Occurrence: 3, Action: faultinject.ActPanic}
	plan := faultinject.NewPlan(rule)
	err := w.RunJobCfg(context.Background(), JobConfig{Inject: plan}, func(c *Comm) {
		for i := 0; i < 10; i++ {
			Allreduce(c, 1, add)
		}
	})
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("err = %v (%T), want *JobError", err, err)
	}
	if je.Kind != FaultPanic || je.Rank != 2 {
		t.Fatalf("JobError = %+v, want injected FaultPanic at rank 2", je)
	}
	ip, ok := je.PanicValue.(faultinject.InjectedPanic)
	if !ok || ip.Rank != 2 || ip.Occurrence != 3 {
		t.Fatalf("PanicValue = %#v, want InjectedPanic{Rank: 2, Occurrence: 3}", je.PanicValue)
	}
	if !rule.Fired() || !plan.Exhausted() {
		t.Fatal("plan should report its rule as fired")
	}
	if w.Broken() {
		t.Fatal("injected panic must not break the world")
	}
	sumJob(t, w)
}

// TestInjectedDelayHarmless: an ActDelay rule perturbs timing but not
// results; the job completes normally.
func TestInjectedDelayHarmless(t *testing.T) {
	const p = 4
	w := NewWorld(p)
	plan := faultinject.NewPlan(&faultinject.Rule{
		Site: faultinject.SiteCollective, Rank: 1, Occurrence: 2,
		Action: faultinject.ActDelay, Delay: 5 * time.Millisecond,
	})
	var got atomic.Int64
	err := w.RunJobCfg(context.Background(), JobConfig{Inject: plan}, func(c *Comm) {
		n := 0
		for i := 0; i < 5; i++ {
			n = Allreduce(c, 1, add)
		}
		if c.Rank() == 0 {
			got.Store(int64(n))
		}
	})
	if err != nil {
		t.Fatalf("delay-injected job: %v", err)
	}
	if int(got.Load()) != p {
		t.Fatalf("sum %d want %d", got.Load(), p)
	}
}

// TestMultiRankFaultsKeepFirst: when two ranks panic in the same superstep,
// the job reports the total fault count and still unwinds everyone.
func TestMultiRankFaultsKeepFirst(t *testing.T) {
	const p = 4
	w := NewWorld(p)
	err := w.RunJob(context.Background(), nil, func(c *Comm) {
		Allreduce(c, 1, add)
		if c.Rank() == 0 || c.Rank() == 3 {
			panic("double trouble")
		}
		for {
			Allreduce(c, 1, add)
		}
	})
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("err = %v (%T), want *JobError", err, err)
	}
	if je.Faults < 1 || je.Faults > 2 {
		t.Fatalf("Faults = %d, want 1 or 2", je.Faults)
	}
	if w.Broken() {
		t.Fatal("world should survive the double panic")
	}
	sumJob(t, w)
}

// TestCancellationStillWins: the cancel path must keep working with the
// containment machinery in place — ctx expiry unwinds all PEs and returns
// ctx.Err(), not a JobError.
func TestCancellationStillWins(t *testing.T) {
	const p = 4
	w := NewWorld(p)
	ctx, cancel := context.WithCancel(context.Background())
	err := w.RunJob(ctx, nil, func(c *Comm) {
		for i := 0; ; i++ {
			Allreduce(c, 1, add)
			if c.Rank() == 0 && i == 5 {
				cancel()
			}
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if w.Broken() {
		t.Fatal("cancellation must not break the world")
	}
	sumJob(t, w)
}

// TestRunRepanicsJobError: the legacy Run API keeps its crash-loudly
// contract — a contained fault is re-raised as a panic carrying the
// *JobError.
func TestRunRepanicsJobError(t *testing.T) {
	const p = 2
	w := NewWorld(p)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Run should re-panic the JobError")
		}
		if _, ok := r.(*JobError); !ok {
			t.Fatalf("recovered %T, want *JobError", r)
		}
	}()
	w.Run(func(c *Comm) {
		Allreduce(c, 1, add)
		if c.Rank() == 1 {
			panic("crash loudly")
		}
		for {
			Allreduce(c, 1, add)
		}
	})
}
