package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"kamsta"
	"kamsta/internal/faultinject"
)

// chaosPEs is the pool shape width the sweep's schedules run against.
const chaosPEs = 2

// isTypedRejection reports whether a Submit error is one of the documented
// admission sentinels — the only way the server may refuse work.
func isTypedRejection(err error) bool {
	for _, sentinel := range []error{
		ErrQueueFull, ErrTenantQueueFull, ErrDeadlineUnattainable,
		ErrBrownout, ErrShapeQuarantined,
	} {
		if errors.Is(err, sentinel) {
			return true
		}
	}
	return false
}

// chaosConfig translates a schedule's server-side knobs into a Config.
func chaosConfig(sch faultinject.ServiceSchedule) Config {
	cfg := Config{
		Pool:            []PoolShape{{PEs: chaosPEs, Threads: 1, Count: 1}},
		QueueBound:      sch.QueueBound,
		QuarantineAfter: sch.QuarantineAfter,
	}
	if sch.RetryAttempts > 0 {
		cfg.Retry = RetryConfig{
			MaxAttempts: sch.RetryAttempts,
			BackoffBase: time.Millisecond, BackoffMax: 4 * time.Millisecond,
		}
	}
	if sch.Batch {
		cfg.Batch = BatchConfig{MaxJobs: 4, MaxEdges: 1 << 16}
	}
	return cfg
}

// chaosRequest translates one scripted job into a Request, attaching the
// fault plan for world-killing jobs. The returned reference is non-nil for
// jobs that may legitimately finish ok (clean, cancelled-too-late, or a
// fault retried to success) — any ok result must match it.
func chaosRequest(t *testing.T, sj faultinject.ServiceJob) (Request, *kamsta.Report) {
	t.Helper()
	n := max(4, sj.Edges)
	edges := testEdges(int64(sj.Seed%(1<<31)), n, 3*n)
	req := Request{
		Tenant:   fmt.Sprintf("t%d", sj.Tenant),
		Edges:    edges,
		Deadline: sj.Deadline,
		NoBatch:  sj.NoBatch,
	}
	if sj.Pin {
		req.PEs = chaosPEs
	}
	switch sj.Fault {
	case faultinject.SvcPanic:
		req.Options = []kamsta.RunOption{kamsta.WithFaultInjection(faultinject.NewPlan(&faultinject.Rule{
			Site: faultinject.SiteCollective, Rank: sj.Rank, Occurrence: sj.Occurrence,
			Action: faultinject.ActPanic,
		}))}
	case faultinject.SvcStall:
		req.Options = []kamsta.RunOption{
			kamsta.WithFaultInjection(faultinject.NewPlan(&faultinject.Rule{
				Site: faultinject.SiteCollective, Rank: sj.Rank, Occurrence: sj.Occurrence,
				Action: faultinject.ActDelay, Delay: 50 * time.Millisecond,
			})),
			kamsta.WithStallTimeout(5 * time.Millisecond),
		}
	}
	// Faulting jobs may still succeed via server-side retry; every fault
	// class except the storm can legitimately produce an ok result.
	if sj.Fault == faultinject.SvcExpiredDeadline {
		return req, nil
	}
	return req, reference(t, edges)
}

// runServiceSchedule replays one seeded scenario against a fresh server and
// asserts the exactly-once contract: every admitted job resolves exactly
// once — ok results match sequential Kruskal, failures are typed — every
// rejection is a documented sentinel, per-tenant accounting balances, and
// Drain completes within its bound.
func runServiceSchedule(t *testing.T, seed uint64) {
	t.Helper()
	sch := faultinject.RandomServiceSchedule(seed, faultinject.ServiceSpec{PEs: chaosPEs, MaxJobs: 8})
	s, err := New(chaosConfig(sch))
	if err != nil {
		t.Fatalf("seed %d: New: %v", seed, err)
	}
	defer s.Close()
	allowQuarantine := sch.QuarantineAfter > 0

	type admission struct {
		j    *Job
		sj   faultinject.ServiceJob
		want *kamsta.Report
	}
	var admitted []admission
	for i, sj := range sch.Jobs {
		if sj.Gap > 0 {
			time.Sleep(sj.Gap)
		}
		req, want := chaosRequest(t, sj)
		j, err := s.Submit(req)
		if err != nil {
			if !isTypedRejection(err) {
				t.Fatalf("seed %d job %d (%v): untyped rejection %v", seed, i, sj.Fault, err)
			}
			continue
		}
		if sj.Fault == faultinject.SvcCancel {
			j.Cancel()
		}
		admitted = append(admitted, admission{j, sj, want})
	}

	waitCtx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for i, a := range admitted {
		rep, err := a.j.Wait(waitCtx)
		if waitCtx.Err() != nil {
			t.Fatalf("seed %d job %d (%v): result never arrived — job lost", seed, i, a.sj.Fault)
		}
		if err == nil {
			if a.want == nil {
				t.Fatalf("seed %d job %d (%v): succeeded but may not (hopeless deadline)", seed, i, a.sj.Fault)
			}
			if rep.TotalWeight != a.want.TotalWeight || rep.NumEdges != a.want.NumEdges {
				t.Fatalf("seed %d job %d (%v): weight %d/%d edges, want %d/%d",
					seed, i, a.sj.Fault, rep.TotalWeight, rep.NumEdges, a.want.TotalWeight, a.want.NumEdges)
			}
			continue
		}
		var je *kamsta.JobError
		quarantined := allowQuarantine && errors.Is(err, ErrShapeQuarantined)
		valid := false
		switch a.sj.Fault {
		case faultinject.SvcNone:
			valid = quarantined
		case faultinject.SvcPanic, faultinject.SvcStall:
			valid = errors.As(err, &je) || quarantined
		case faultinject.SvcExpiredDeadline:
			valid = errors.Is(err, context.DeadlineExceeded) || quarantined
		case faultinject.SvcCancel:
			valid = errors.Is(err, context.Canceled) || quarantined
		}
		if !valid {
			t.Fatalf("seed %d job %d (%v): unexpected terminal error %v", seed, i, a.sj.Fault, err)
		}
	}

	st := s.Stats()
	var submitted, completed, queued int64
	for _, ts := range st.Tenants {
		submitted += ts.Submitted
		completed += ts.Completed
		queued += int64(ts.Queued)
	}
	if submitted != int64(len(admitted)) || completed != submitted || queued != 0 {
		t.Fatalf("seed %d: accounting broke: admitted %d, submitted %d, completed %d, queued %d",
			seed, len(admitted), submitted, completed, queued)
	}
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), time.Minute)
	defer cancelDrain()
	if err := s.Drain(drainCtx); err != nil {
		t.Fatalf("seed %d: Drain: %v", seed, err)
	}
}

// TestServiceChaosSweep replays ≥100 seeded service-level chaos schedules —
// machine-killing panics and stalls mid-job, client cancels, deadline
// storms, across randomized retry/quarantine/batching configs — and then
// proves the modeled clock still produces the pinned golden bits: no state
// leaks out of any amount of service-level chaos. Run under -race in CI;
// -short keeps a representative prefix for local runs.
func TestServiceChaosSweep(t *testing.T) {
	n := 104
	if testing.Short() {
		n = 24
	}
	for seed := uint64(1); seed <= uint64(n); seed++ {
		runServiceSchedule(t, seed)
	}

	// The golden coda: the same references chaos_test.go (kamsta package)
	// pins. A fresh machine must reproduce them bit-exactly after the sweep.
	golden := []struct {
		name string
		spec kamsta.GraphSpec
		alg  kamsta.Algorithm
		bits uint64
	}{
		{"gnm-boruvka", kamsta.GraphSpec{Family: kamsta.GNM, N: 1 << 10, M: 1 << 13, Seed: 42}, kamsta.AlgBoruvka, 0x3f453980b2cb7769},
		{"rgg2d-filter", kamsta.GraphSpec{Family: kamsta.RGG2D, N: 1 << 10, M: 1 << 13, Seed: 7}, kamsta.AlgFilterBoruvka, 0x3f69ca79e9d980a0},
	}
	m, err := kamsta.NewMachine(kamsta.MachineConfig{PEs: 8, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for _, gc := range golden {
		rep, err := m.Compute(context.Background(), kamsta.FromSpec(gc.spec), kamsta.WithAlgorithm(gc.alg))
		if err != nil {
			t.Fatalf("golden %s: %v", gc.name, err)
		}
		if got := math.Float64bits(rep.ModeledSeconds); got != gc.bits {
			t.Fatalf("golden %s clock bits %#x, want %#x", gc.name, got, gc.bits)
		}
	}
}
