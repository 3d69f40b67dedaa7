package serve

import (
	"context"
	"errors"
	"net"
	"net/http/httptest"
	"testing"
	"time"

	"kamsta"
	"kamsta/internal/faultinject"
)

// TestFastFailQueuedDeadline is the fast-fail regression: a queued job whose
// deadline expires must be withdrawn and failed immediately by the watcher —
// never dispatched (started stays zero), and resolved while the machine is
// still busy with the job ahead of it.
func TestFastFailQueuedDeadline(t *testing.T) {
	s := newTestServer(t, Config{Pool: []PoolShape{{PEs: 2}}})
	warm, err := s.Submit(Request{
		Tenant: "a",
		Spec:   &kamsta.GraphSpec{Family: kamsta.GNM, N: 4000, M: 16000, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Submit(Request{Tenant: "a", Edges: testEdges(4, 10, 20), Deadline: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued job err = %v, want DeadlineExceeded", err)
	}
	if got := j.started.Load(); got != 0 {
		t.Fatalf("expired queued job was dispatched (started=%d); fast-fail must withdraw it from the queue", got)
	}
	if j.Status() != "done" {
		t.Fatalf("Status = %q, want done", j.Status())
	}
	if _, _, done := warm.Result(); done {
		t.Fatal("warm job finished before the expired job resolved — fast-fail never beat the queue")
	}
	if _, err := warm.Wait(context.Background()); err != nil {
		t.Fatalf("warm job: %v", err)
	}
}

// TestBatchMemberDeadlineExpiresMidBatch drives runBatch directly with one
// member whose deadline has already burned out: the shared run must complete
// for the survivors (their splits match sequential Kruskal) while the
// expired member reports its own deadline error — one member's contract
// must not kill the batch.
func TestBatchMemberDeadlineExpiresMidBatch(t *testing.T) {
	s := newTestServer(t, Config{
		Pool:  []PoolShape{{PEs: 4}},
		Batch: BatchConfig{MaxJobs: 4, MaxEdges: 1 << 16},
	})
	mk := func(seed int64, d time.Duration) *Job {
		edges := testEdges(seed, 20, 60)
		maxV, verts, err := profileEdges(edges)
		if err != nil {
			t.Fatal(err)
		}
		j := &Job{
			id: s.ids.Add(1), tenant: "a",
			req:  Request{Tenant: "a", Edges: edges},
			maxV: maxV, verts: verts,
			submitted: time.Now(), done: make(chan struct{}),
		}
		j.ctx, j.cancel = context.WithTimeout(s.baseCtx, d)
		return j
	}
	j1 := mk(51, time.Minute)
	expired := mk(52, time.Nanosecond)
	j2 := mk(53, time.Minute)
	<-expired.ctx.Done() // the member's deadline burns out before the run splits

	if err := s.runBatch(s.machines[0], []*Job{j1, expired, j2}); err != nil {
		t.Fatalf("runBatch: %v", err)
	}
	if _, err, ok := expired.Result(); !ok || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired member: ok=%v err=%v, want DeadlineExceeded", ok, err)
	}
	for i, j := range []*Job{j1, j2} {
		rep, err, ok := j.Result()
		if !ok || err != nil {
			t.Fatalf("survivor %d: ok=%v err=%v", i, ok, err)
		}
		want := reference(t, j.req.Edges)
		if rep.TotalWeight != want.TotalWeight || rep.NumEdges != want.NumEdges {
			t.Fatalf("survivor %d: weight %d/%d edges, want %d/%d",
				i, rep.TotalWeight, rep.NumEdges, want.TotalWeight, want.NumEdges)
		}
	}
}

// TestShedUnattainableDeadline warms the service-time estimator by hand and
// checks the admission gate: a deadline the estimated queue wait would burn
// is rejected up front with ErrDeadlineUnattainable and a Retry-After hint,
// while a generous deadline still admits.
func TestShedUnattainableDeadline(t *testing.T) {
	s := newTestServer(t, Config{Pool: []PoolShape{{PEs: 2}}, ShedMinSamples: 1})
	for i := 0; i < 8; i++ {
		s.shed.observe(2, 1.0) // recent dispatches took ~1s each
	}
	warm, err := s.Submit(Request{
		Tenant: "a",
		Spec:   &kamsta.GraphSpec{Family: kamsta.GNM, N: 4000, M: 16000, Seed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(Request{Tenant: "a", Edges: testEdges(6, 20, 60)})
	if err != nil {
		t.Fatal(err)
	}
	// Depth 1 behind a ~1s/job estimator: a 50ms deadline cannot survive.
	_, err = s.Submit(Request{Tenant: "a", Edges: testEdges(7, 10, 20), Deadline: 50 * time.Millisecond})
	if !errors.Is(err, ErrDeadlineUnattainable) {
		t.Fatalf("short deadline err = %v, want ErrDeadlineUnattainable", err)
	}
	if hint, ok := retryAfterOf(err); !ok || hint <= 0 {
		t.Fatalf("shed rejection carries no Retry-After hint: %v", err)
	}
	// A deadline the estimate fits is still admitted.
	fits, err := s.Submit(Request{Tenant: "a", Edges: testEdges(8, 10, 20), Deadline: time.Minute})
	if err != nil {
		t.Fatalf("generous deadline rejected: %v", err)
	}
	for _, j := range []*Job{warm, queued, fits} {
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatalf("admitted job failed: %v", err)
		}
	}
}

// TestBrownoutShedsBatchable fills the queue past the brownout mark and
// checks graceful degradation: batch-eligible small jobs are shed with
// ErrBrownout (and a hint) while NoBatch work is still admitted, Stats and
// readyz report the degraded state, and the brownout clears once the queue
// drains.
func TestBrownoutShedsBatchable(t *testing.T) {
	s := newTestServer(t, Config{
		Pool:             []PoolShape{{PEs: 2}},
		QueueBound:       8,
		BrownoutFraction: 0.25, // brownout at depth 2
		Batch:            BatchConfig{MaxJobs: 4, MaxEdges: 1 << 16},
	})
	warm, err := s.Submit(Request{
		Tenant: "a",
		Spec:   &kamsta.GraphSpec{Family: kamsta.GNM, N: 4000, M: 16000, Seed: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	var queued []*Job
	for i := 0; i < 2; i++ {
		j, err := s.Submit(Request{Tenant: "a", Edges: testEdges(int64(10+i), 20, 60), NoBatch: true})
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, j)
	}
	if !s.brownout() {
		t.Fatalf("depth %d ≥ %d but brownout() is false", s.sched.depth(), s.brownoutHi)
	}
	_, err = s.Submit(Request{Tenant: "a", Edges: testEdges(12, 10, 20)})
	if !errors.Is(err, ErrBrownout) {
		t.Fatalf("batchable submit err = %v, want ErrBrownout", err)
	}
	if hint, ok := retryAfterOf(err); !ok || hint <= 0 {
		t.Fatalf("brownout rejection carries no Retry-After hint: %v", err)
	}
	nb, err := s.Submit(Request{Tenant: "a", Edges: testEdges(13, 10, 20), NoBatch: true})
	if err != nil {
		t.Fatalf("NoBatch submit during brownout: %v", err)
	}
	if st := s.Stats(); !st.Brownout {
		t.Fatalf("Stats.Brownout = false during brownout: %+v", st)
	}
	rr := httptest.NewRecorder()
	s.handleReady(rr, httptest.NewRequest("GET", "/readyz", nil))
	if rr.Code != 503 {
		t.Fatalf("readyz = %d during brownout, want 503", rr.Code)
	}
	for _, j := range append(queued, warm, nb) {
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatalf("admitted job failed: %v", err)
		}
	}
	if s.brownout() {
		t.Fatal("brownout did not clear after the queue drained")
	}
	after, err := s.Submit(Request{Tenant: "a", Edges: testEdges(14, 10, 20)})
	if err != nil {
		t.Fatalf("batchable submit after brownout cleared: %v", err)
	}
	if _, err := after.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// transientPlan arms one fault that fires exactly once across a job and its
// retries (the Plan's fired flags are shared), so the first dispatch dies
// and the re-dispatch runs clean — the transient-fault model.
func transientPlan() *faultinject.Plan {
	return faultinject.NewPlan(&faultinject.Rule{
		Site: faultinject.SiteCollective, Rank: 0, Occurrence: 1, Action: faultinject.ActPanic,
	})
}

// persistentPlan arms panics at consecutive collective occurrences, so every
// retry (whose injector counters restart at zero but whose fired flags
// don't) hits the next armed rule — a fault that never goes away.
func persistentPlan(n int) *faultinject.Plan {
	rules := make([]*faultinject.Rule, n)
	for i := range rules {
		rules[i] = &faultinject.Rule{
			Site: faultinject.SiteCollective, Rank: 0, Occurrence: i, Action: faultinject.ActPanic,
		}
	}
	return faultinject.NewPlan(rules...)
}

func TestRetryToSuccess(t *testing.T) {
	s := newTestServer(t, Config{
		Pool:  []PoolShape{{PEs: 2}},
		Retry: RetryConfig{MaxAttempts: 3},
	})
	edges := testEdges(21, 40, 120)
	want := reference(t, edges)
	plan := transientPlan()
	j, err := s.Submit(Request{
		Tenant: "a", Edges: edges,
		Options: []kamsta.RunOption{kamsta.WithFaultInjection(plan)},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := j.Wait(context.Background())
	if err != nil {
		t.Fatalf("retried job failed: %v", err)
	}
	if rep.TotalWeight != want.TotalWeight || rep.NumEdges != want.NumEdges {
		t.Fatalf("weight %d/%d edges, want %d/%d", rep.TotalWeight, rep.NumEdges, want.TotalWeight, want.NumEdges)
	}
	if !plan.Exhausted() {
		t.Fatal("fault plan never fired — the retry path was not exercised")
	}
	st := s.Stats()
	if len(st.Tenants) != 1 || st.Tenants[0].Retried != 1 {
		t.Fatalf("tenant stats = %+v, want Retried 1", st.Tenants)
	}
}

func TestRetryAttemptsExhausted(t *testing.T) {
	s := newTestServer(t, Config{
		Pool:  []PoolShape{{PEs: 2}},
		Retry: RetryConfig{MaxAttempts: 3},
	})
	j, err := s.Submit(Request{
		Tenant: "a", Edges: testEdges(22, 40, 120),
		Options: []kamsta.RunOption{kamsta.WithFaultInjection(persistentPlan(8))},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = j.Wait(context.Background())
	var je *kamsta.JobError
	if !errors.As(err, &je) {
		t.Fatalf("persistent fault err = %v, want *kamsta.JobError", err)
	}
	st := s.Stats()
	if len(st.Tenants) != 1 || st.Tenants[0].Retried != 2 {
		t.Fatalf("tenant stats = %+v, want Retried 2 (three attempts)", st.Tenants)
	}
}

func TestRetryBudgetExhausted(t *testing.T) {
	s := newTestServer(t, Config{
		Pool: []PoolShape{{PEs: 2}},
		Retry: RetryConfig{
			MaxAttempts: 3, BudgetRate: 0.001, BudgetBurst: 0.5, // the bucket can never reach one token
		},
	})
	j, err := s.Submit(Request{
		Tenant: "a", Edges: testEdges(23, 40, 120),
		Options: []kamsta.RunOption{kamsta.WithFaultInjection(transientPlan())},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = j.Wait(context.Background())
	var je *kamsta.JobError
	if !errors.As(err, &je) {
		t.Fatalf("budget-starved fault err = %v, want the original *kamsta.JobError", err)
	}
	if st := s.Stats(); st.Tenants[0].Retried != 0 {
		t.Fatalf("tenant stats = %+v, want Retried 0 (budget denied)", st.Tenants)
	}
}

// TestQuarantineAfterConsecutiveFaults quarantines a machine after repeated
// world faults and checks the blast radius: queued jobs only it could serve
// fail with ErrShapeQuarantined, admission rejects new pinned work up front,
// the surviving shape keeps serving, and Stats/readyz report the degraded
// pool.
func TestQuarantineAfterConsecutiveFaults(t *testing.T) {
	s := newTestServer(t, Config{
		Pool:            []PoolShape{{PEs: 2, Threads: 1, Count: 1}, {PEs: 4, Threads: 1, Count: 1}},
		QuarantineAfter: 2,
	})
	faultReq := func(seed int64) Request {
		return Request{
			Tenant: "a", PEs: 2, Edges: testEdges(seed, 40, 120),
			Options: []kamsta.RunOption{kamsta.WithFaultInjection(faultinject.NewPlan(&faultinject.Rule{
				Site: faultinject.SiteCollective, Rank: 0, Occurrence: 0, Action: faultinject.ActPanic,
			}))},
		}
	}
	f1, err := s.Submit(faultReq(31))
	if err != nil {
		t.Fatal(err)
	}
	var je *kamsta.JobError
	if _, err := f1.Wait(context.Background()); !errors.As(err, &je) {
		t.Fatalf("fault 1 err = %v, want *kamsta.JobError", err)
	}
	f2, err := s.Submit(faultReq(32))
	if err != nil {
		t.Fatal(err)
	}
	// A pinned victim behind the second fault: either admission already sees
	// the quarantine, or the queued job is failed when quarantine sweeps.
	victim, verr := s.Submit(Request{Tenant: "a", PEs: 2, Edges: testEdges(33, 20, 60)})
	if _, err := f2.Wait(context.Background()); !errors.As(err, &je) {
		t.Fatalf("fault 2 err = %v, want *kamsta.JobError", err)
	}
	if verr != nil {
		if !errors.Is(verr, ErrShapeQuarantined) {
			t.Fatalf("victim submit err = %v, want ErrShapeQuarantined", verr)
		}
	} else if _, err := victim.Wait(context.Background()); !errors.Is(err, ErrShapeQuarantined) {
		t.Fatalf("victim err = %v, want ErrShapeQuarantined", err)
	}
	if _, err := s.Submit(Request{Tenant: "a", PEs: 2, Edges: testEdges(34, 10, 20)}); !errors.Is(err, ErrShapeQuarantined) {
		t.Fatalf("pinned submit after quarantine err = %v, want ErrShapeQuarantined", err)
	}
	// The surviving shape still serves unpinned work.
	edges := testEdges(35, 30, 90)
	want := reference(t, edges)
	ok, err := s.Submit(Request{Tenant: "a", Edges: edges})
	if err != nil {
		t.Fatalf("unpinned submit after quarantine: %v", err)
	}
	rep, err := ok.Wait(context.Background())
	if err != nil {
		t.Fatalf("unpinned job after quarantine: %v", err)
	}
	if rep.TotalWeight != want.TotalWeight {
		t.Fatalf("weight %d, want %d", rep.TotalWeight, want.TotalWeight)
	}
	st := s.Stats()
	if st.Quarantined != 1 {
		t.Fatalf("Stats.Quarantined = %d, want 1", st.Quarantined)
	}
	quarantined := 0
	for _, ms := range st.Machines {
		if ms.Quarantined {
			quarantined++
			if ms.PEs != 2 {
				t.Fatalf("quarantined machine has %d PEs, want 2", ms.PEs)
			}
		}
	}
	if quarantined != 1 {
		t.Fatalf("%d machines marked quarantined, want 1", quarantined)
	}
	rr := httptest.NewRecorder()
	s.handleReady(rr, httptest.NewRequest("GET", "/readyz", nil))
	if rr.Code != 503 {
		t.Fatalf("readyz = %d with a quarantined machine, want 503", rr.Code)
	}
}

// TestDeadMachineLeavesService loses the worker process behind a distributed
// pool machine at the default QuarantineAfter of 0: the condemned machine
// fails every Compute in microseconds, so unless it leaves service it drains
// the whole queue into errors. The job that finds it dead pays for the
// discovery; after that the pool reports the loss, admission refuses what
// nothing can serve, and no job fails for having met a dead machine.
func TestDeadMachineLeavesService(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	workerCtx, killWorker := context.WithCancel(context.Background())
	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		kamsta.ServeWorker(workerCtx, lis, kamsta.WorkerOptions{})
	}()
	defer func() { killWorker(); <-workerDone }()

	s := newTestServer(t, Config{
		Pool:      []PoolShape{{PEs: 2}},
		Transport: kamsta.TransportTCP, Workers: []string{lis.Addr().String()},
		QuarantineAfter: 0,
	})
	warm := mustSubmit(t, s, Request{Tenant: "a", Edges: testEdges(41, 20, 60)})
	if _, err := warm.Wait(context.Background()); err != nil {
		t.Fatalf("warm job over the wire: %v", err)
	}
	killWorker()
	<-workerDone

	// A burst behind the loss: the first dispatch discovers it.
	var admitted []*Job
	for i := int64(0); i < 20; i++ {
		j, err := s.Submit(Request{Tenant: "a", Edges: testEdges(50+i, 20, 60)})
		if err == nil {
			admitted = append(admitted, j)
		} else if !errors.Is(err, ErrShapeQuarantined) {
			t.Fatalf("burst job %d rejected with %v, want ErrShapeQuarantined", i, err)
		}
	}
	discovered := 0
	for _, j := range admitted {
		_, err := j.Wait(context.Background())
		switch Outcome(err) {
		case "fault", "world_failed":
			discovered++
		case "quarantined":
		default:
			t.Errorf("burst job %d: %q (%v), want the discovery or quarantined", j.ID(), Outcome(err), err)
		}
	}
	if discovered != 1 {
		t.Errorf("%d jobs met the dead machine, want exactly 1", discovered)
	}
	if st := s.Stats(); st.Quarantined != 1 || !st.Machines[0].Quarantined {
		t.Errorf("Stats = %+v, want the dead machine quarantined", st)
	}
	if _, err := s.Submit(Request{Tenant: "a", Edges: testEdges(42, 20, 60)}); !errors.Is(err, ErrShapeQuarantined) {
		t.Errorf("submit to a pool with no live machine: err = %v, want ErrShapeQuarantined", err)
	}
	rr := httptest.NewRecorder()
	s.handleReady(rr, httptest.NewRequest("GET", "/readyz", nil))
	if rr.Code != 503 {
		t.Errorf("readyz = %d with no live machine, want 503", rr.Code)
	}
}
