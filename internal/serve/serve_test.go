package serve

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"kamsta"
	"kamsta/internal/obs"
)

// testEdges builds a deterministic random connected-ish instance with
// labels in [1, n].
func testEdges(seed int64, n, m int) []kamsta.InputEdge {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]kamsta.InputEdge, 0, m+n-1)
	// A random spanning path first, so the instance is connected and the
	// forest is a tree (easier to eyeball on failures).
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		edges = append(edges, kamsta.InputEdge{
			U: uint64(perm[i-1] + 1), V: uint64(perm[i] + 1), W: uint32(rng.Intn(1000) + 1),
		})
	}
	for len(edges) < m {
		u, v := rng.Intn(n)+1, rng.Intn(n)+1
		if u == v {
			continue
		}
		edges = append(edges, kamsta.InputEdge{U: uint64(u), V: uint64(v), W: uint32(rng.Intn(1000) + 1)})
	}
	return edges
}

// reference computes the sequential Kruskal answer for an edge list.
func reference(t *testing.T, edges []kamsta.InputEdge) *kamsta.Report {
	t.Helper()
	m, err := kamsta.NewMachine(kamsta.MachineConfig{PEs: 1})
	if err != nil {
		t.Fatalf("reference machine: %v", err)
	}
	defer m.Close()
	rep, err := m.Compute(context.Background(), kamsta.FromEdges(edges), kamsta.WithAlgorithm(kamsta.AlgKruskal))
	if err != nil {
		t.Fatalf("reference kruskal: %v", err)
	}
	return rep
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestSubmitWaitMatchesReference(t *testing.T) {
	s := newTestServer(t, Config{Pool: []PoolShape{{PEs: 2, Threads: 1, Count: 1}}})
	edges := testEdges(1, 80, 300)
	want := reference(t, edges)
	j, err := s.Submit(Request{Tenant: "a", Edges: edges})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	rep, err := j.Wait(context.Background())
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if rep.TotalWeight != want.TotalWeight || rep.NumEdges != want.NumEdges {
		t.Fatalf("got weight %d/%d edges, want %d/%d",
			rep.TotalWeight, rep.NumEdges, want.TotalWeight, want.NumEdges)
	}
	if j.Status() != "done" {
		t.Fatalf("Status = %q, want done", j.Status())
	}
}

func TestSubmitValidation(t *testing.T) {
	s := newTestServer(t, Config{
		Pool:    []PoolShape{{PEs: 2}},
		Tenants: []TenantConfig{{Name: "alpha", Weight: 1}},
	})
	edges := testEdges(2, 10, 20)
	cases := []struct {
		name string
		req  Request
		want error
	}{
		{"missing tenant", Request{Edges: edges}, ErrBadRequest},
		{"no source", Request{Tenant: "alpha"}, ErrBadRequest},
		{"two sources", Request{Tenant: "alpha", Edges: edges, File: "x.gr"}, ErrBadRequest},
		{"bad algorithm", Request{Tenant: "alpha", Edges: edges, Algorithm: "dijkstra"}, ErrBadRequest},
		{"bad labels", Request{Tenant: "alpha", Edges: []kamsta.InputEdge{{U: 0, V: 1, W: 1}}}, ErrBadRequest},
		{"self loop", Request{Tenant: "alpha", Edges: []kamsta.InputEdge{{U: 3, V: 3, W: 1}}}, ErrBadRequest},
		{"unknown tenant", Request{Tenant: "mallory", Edges: edges}, ErrUnknownTenant},
		{"no such shape", Request{Tenant: "alpha", Edges: edges, PEs: 64}, ErrNoSuchShape},
	}
	for _, tc := range cases {
		if _, err := s.Submit(tc.req); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// anyJob is the census of a scheduler tested with no machine behind it:
// every job is servable.
func anyJob(*Job) bool { return true }

// TestSchedulerRefusesUnservable: once the census says no live machine can
// run a job, admission and a retry's resubmission refuse it under the
// scheduler lock and queue nothing, and the quarantine sweep takes out what
// was queued before — so no job can enter the queue after the sweep.
func TestSchedulerRefusesUnservable(t *testing.T) {
	live := true
	sched := newScheduler(4, 4, 1, func(*Job) bool { return live })
	defer sched.close()
	mkJob := func() *Job {
		ctx, cancel := context.WithCancel(context.Background())
		return &Job{tenant: "a", ctx: ctx, cancel: cancel, done: make(chan struct{})}
	}
	retried, swept := mkJob(), mkJob()
	for _, j := range []*Job{retried, swept} {
		if err := sched.submit(j); err != nil {
			t.Fatal(err)
		}
	}
	if got := sched.next(0, BatchConfig{}); len(got) != 1 || got[0] != retried {
		t.Fatalf("dispatched %d jobs, want the first one", len(got))
	}
	live = false
	if err := sched.submit(mkJob()); !errors.Is(err, ErrShapeQuarantined) {
		t.Fatalf("submit: err = %v, want ErrShapeQuarantined", err)
	}
	if err := sched.resubmit(retried); !errors.Is(err, ErrShapeQuarantined) {
		t.Fatalf("resubmit: err = %v, want ErrShapeQuarantined", err)
	}
	if got := sched.failUnservable(); len(got) != 1 || got[0] != swept {
		t.Fatalf("the sweep failed %d jobs, want the queued one", len(got))
	}
	if d := sched.depth(); d != 0 {
		t.Fatalf("%d jobs queued behind a quarantined pool", d)
	}
	if rej := sched.snapshot()[0].Rejected; rej != 1 {
		t.Fatalf("tenant rejected %d, want the refused submission", rej)
	}
}

// TestSchedulerBounds exercises admission bounds on the scheduler directly,
// with no machine behind it.
func TestSchedulerBounds(t *testing.T) {
	sched := newScheduler(4, 2, 1, anyJob)
	mkJob := func(tenant string) *Job {
		ctx, cancel := context.WithCancel(context.Background())
		return &Job{tenant: tenant, ctx: ctx, cancel: cancel, done: make(chan struct{})}
	}
	for i := 0; i < 2; i++ {
		if err := sched.submit(mkJob("a")); err != nil {
			t.Fatalf("a#%d: %v", i, err)
		}
	}
	if err := sched.submit(mkJob("a")); !errors.Is(err, ErrTenantQueueFull) {
		t.Fatalf("tenant bound: err = %v, want ErrTenantQueueFull", err)
	}
	for i := 0; i < 2; i++ {
		if err := sched.submit(mkJob("b")); err != nil {
			t.Fatalf("b#%d: %v", i, err)
		}
	}
	if err := sched.submit(mkJob("c")); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("global bound: err = %v, want ErrQueueFull", err)
	}
	sched.drain()
	if err := sched.submit(mkJob("a")); !errors.Is(err, ErrDraining) {
		t.Fatalf("draining: err = %v, want ErrDraining", err)
	}
	sched.close()
}

// TestSchedulerWeightedFairness checks the stride scheduler's long-run
// shares: weight 3 vs weight 1 under constant backlog must dispatch 3:1.
func TestSchedulerWeightedFairness(t *testing.T) {
	sched := newScheduler(1024, 1024, 0, anyJob)
	sched.register("heavy", 3)
	sched.register("light", 1)
	mkJob := func(tenant string) *Job {
		ctx, cancel := context.WithCancel(context.Background())
		return &Job{tenant: tenant, ctx: ctx, cancel: cancel, done: make(chan struct{})}
	}
	for i := 0; i < 100; i++ {
		if err := sched.submit(mkJob("heavy")); err != nil {
			t.Fatal(err)
		}
		if err := sched.submit(mkJob("light")); err != nil {
			t.Fatal(err)
		}
	}
	counts := map[string]int{}
	for i := 0; i < 80; i++ {
		jobs := sched.next(4, BatchConfig{})
		if len(jobs) != 1 {
			t.Fatalf("pop %d: got %d jobs, want 1", i, len(jobs))
		}
		counts[jobs[0].tenant]++
	}
	// 80 slots at weights 3:1 → 60/20, ±1 for stride phase.
	if counts["heavy"] < 59 || counts["heavy"] > 61 {
		t.Fatalf("heavy got %d of 80 slots, want ~60 (light %d)", counts["heavy"], counts["light"])
	}
	sched.close()
}

// TestSchedulerBatchCollection checks that next coalesces batch-compatible
// jobs across tenants and leaves incompatible ones queued.
func TestSchedulerBatchCollection(t *testing.T) {
	sched := newScheduler(1024, 1024, 1, anyJob)
	bc := BatchConfig{MaxJobs: 4, MaxEdges: 100}
	mkJob := func(tenant string, edges []kamsta.InputEdge, noBatch bool) *Job {
		ctx, cancel := context.WithCancel(context.Background())
		j := &Job{
			tenant: tenant,
			req:    Request{Tenant: tenant, Edges: edges, NoBatch: noBatch},
			ctx:    ctx, cancel: cancel, done: make(chan struct{}),
		}
		for _, e := range edges {
			j.maxV = max(j.maxV, e.U, e.V)
		}
		return j
	}
	small := testEdges(3, 8, 12)
	for i := 0; i < 3; i++ {
		if err := sched.submit(mkJob("a", small, false)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sched.submit(mkJob("b", small, true)); err != nil { // opted out
		t.Fatal(err)
	}
	if err := sched.submit(mkJob("c", small, false)); err != nil {
		t.Fatal(err)
	}
	jobs := sched.next(4, bc)
	if len(jobs) != 4 {
		t.Fatalf("batch size = %d, want 4 (3×a + c)", len(jobs))
	}
	for _, j := range jobs {
		if j.req.NoBatch {
			t.Fatalf("NoBatch job landed in a batch")
		}
	}
	rest := sched.next(4, bc)
	if len(rest) != 1 || !rest[0].req.NoBatch {
		t.Fatalf("second pick = %d jobs (NoBatch %v), want the single NoBatch job",
			len(rest), len(rest) > 0 && rest[0].req.NoBatch)
	}
	sched.close()
}

// TestBatchedResultsMatchReference pushes a burst of small edge-list jobs
// through a single-machine server with batching on and cross-checks every
// result against sequential Kruskal. The first job is a larger generated
// instance that keeps the machine busy so the burst actually queues and
// coalesces; the batch-size histogram asserts batching really happened.
func TestBatchedResultsMatchReference(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{
		Pool:    []PoolShape{{PEs: 4, Threads: 1, Count: 1}},
		Batch:   BatchConfig{MaxJobs: 8, MaxEdges: 1 << 16},
		Metrics: reg,
	})
	warm, err := s.Submit(Request{
		Tenant: "a",
		Spec:   &kamsta.GraphSpec{Family: kamsta.GNM, N: 4000, M: 16000, Seed: 7},
	})
	if err != nil {
		t.Fatalf("warm submit: %v", err)
	}
	type pending struct {
		j    *Job
		want *kamsta.Report
	}
	var jobs []pending
	var spans []uint64 // per-job label upper bound, for the mapped-back check
	for i := 0; i < 12; i++ {
		edges := testEdges(int64(100+i), 30+i, 90+3*i)
		spans = append(spans, uint64(30+i))
		j, err := s.Submit(Request{Tenant: []string{"a", "b", "c"}[i%3], Edges: edges})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs = append(jobs, pending{j, reference(t, edges)})
	}
	if _, err := warm.Wait(context.Background()); err != nil {
		t.Fatalf("warm job: %v", err)
	}
	for i, p := range jobs {
		rep, err := p.j.Wait(context.Background())
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if rep.TotalWeight != p.want.TotalWeight || rep.NumEdges != p.want.NumEdges {
			t.Fatalf("job %d: weight %d/%d edges, want %d/%d",
				i, rep.TotalWeight, rep.NumEdges, p.want.TotalWeight, p.want.NumEdges)
		}
		if len(rep.MSTEdges) != rep.NumEdges {
			t.Fatalf("job %d: %d MSTEdges vs NumEdges %d", i, len(rep.MSTEdges), rep.NumEdges)
		}
		for _, e := range rep.MSTEdges {
			if e.U < 1 || e.V < 1 || e.U > spans[i] || e.V > spans[i] {
				t.Fatalf("job %d: forest edge %+v outside the job's label range [1,%d]", i, e, spans[i])
			}
		}
	}
	h := reg.Histogram("serve_batch_jobs",
		"Jobs coalesced per batched dispatch.", []float64{2, 4, 8, 16, 32})
	if h.Count() == 0 {
		t.Fatalf("no batch was formed: batching path untested")
	}
}

func TestQueuedDeadlineExpires(t *testing.T) {
	s := newTestServer(t, Config{Pool: []PoolShape{{PEs: 2}}})
	// Occupy the machine so the deadline job dies in the queue.
	warm, err := s.Submit(Request{
		Tenant: "a",
		Spec:   &kamsta.GraphSpec{Family: kamsta.GNM, N: 4000, M: 16000, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Submit(Request{Tenant: "a", Edges: testEdges(4, 10, 20), Deadline: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued job err = %v, want DeadlineExceeded", err)
	}
	if _, err := warm.Wait(context.Background()); err != nil {
		t.Fatalf("warm job: %v", err)
	}
}

func TestDrainFinishesQueuedJobs(t *testing.T) {
	s := newTestServer(t, Config{Pool: []PoolShape{{PEs: 2}}})
	var jobs []*Job
	for i := 0; i < 6; i++ {
		j, err := s.Submit(Request{Tenant: "a", Edges: testEdges(int64(i), 20, 60)})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for i, j := range jobs {
		if _, err, ok := j.Result(); !ok || err != nil {
			t.Fatalf("job %d after drain: ok=%v err=%v", i, ok, err)
		}
	}
	if _, err := s.Submit(Request{Tenant: "a", Edges: testEdges(9, 10, 20)}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after drain: err = %v, want ErrDraining", err)
	}
}

func TestCloseFailsQueuedJobs(t *testing.T) {
	s := newTestServer(t, Config{Pool: []PoolShape{{PEs: 2}}})
	var jobs []*Job
	for i := 0; i < 8; i++ {
		j, err := s.Submit(Request{
			Tenant: "a",
			Spec:   &kamsta.GraphSpec{Family: kamsta.GNM, N: 2000, M: 8000, Seed: uint64(i + 1)},
		})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	s.Close()
	for i, j := range jobs {
		_, err, ok := j.Result()
		if !ok {
			t.Fatalf("job %d unresolved after Close", i)
		}
		if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, kamsta.ErrMachineClosed) {
			t.Fatalf("job %d: err = %v, want nil, Canceled or ErrMachineClosed", i, err)
		}
	}
}

func TestStats(t *testing.T) {
	s := newTestServer(t, Config{
		Pool:    []PoolShape{{PEs: 2, Threads: 1, Count: 2}},
		Tenants: []TenantConfig{{Name: "alpha", Weight: 2}, {Name: "beta", Weight: 1}},
	})
	j, err := s.Submit(Request{Tenant: "alpha", Edges: testEdges(5, 40, 120)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.State != "running" || len(st.Machines) != 2 || len(st.Tenants) != 2 {
		t.Fatalf("stats = %+v", st)
	}
	var alpha TenantStat
	for _, ts := range st.Tenants {
		if ts.Name == "alpha" {
			alpha = ts
		}
	}
	if alpha.Submitted != 1 || alpha.Completed != 1 || alpha.Weight != 2 {
		t.Fatalf("alpha stats = %+v", alpha)
	}
}

// TestProfileEdges: the distinct-label count and the max label match a
// set's on both counting paths (a bitmap for the dense lists, a sort for the
// sparse ones), and a bad edge is refused with its own message, the first bad edge
// in input order.
func TestProfileEdges(t *testing.T) {
	edges := append(testEdges(7, 40, 90), kamsta.InputEdge{U: 1000, V: 3, W: 1})
	// Labels near 2^32−1 are sparse: only the sort counts them.
	high := make([]kamsta.InputEdge, len(edges))
	for i, e := range edges {
		high[i] = kamsta.InputEdge{U: e.U + 1<<32 - 1001, V: e.V + 1<<32 - 1001, W: e.W}
	}
	repeated := []kamsta.InputEdge{{U: 4, V: 9}, {U: 9, V: 4}, {U: 4, V: 9}, {U: 4, V: 2}}
	highRepeated := []kamsta.InputEdge{{U: 1<<32 - 2, V: 1<<32 - 3}, {U: 1<<32 - 3, V: 1<<32 - 2}, {U: 1<<32 - 2, V: 1<<32 - 3}, {U: 1<<32 - 2, V: 7}}
	for _, tc := range []struct {
		name  string
		edges []kamsta.InputEdge
	}{{"dense", edges}, {"sparse", high}, {"repeated endpoints", repeated}, {"sparse repeated endpoints", highRepeated}, {"empty", nil}} {
		seen := map[uint64]bool{}
		var wantMax uint64
		for _, e := range tc.edges {
			seen[e.U], seen[e.V] = true, true
			wantMax = max(wantMax, e.U, e.V)
		}
		maxV, verts, err := profileEdges(tc.edges)
		if err != nil || maxV != wantMax || verts != len(seen) {
			t.Fatalf("%s: max %d, %d labels, %v; want %d, %d", tc.name, maxV, verts, err, wantMax, len(seen))
		}
	}
	// The sort, not a 512 MB bitmap, counts the labels near 2^32−1.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	profileEdges(high)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("sparse labels allocated %d bytes", grew)
	}
	bad := append(edges[:3:3], kamsta.InputEdge{U: 5, V: 5}, kamsta.InputEdge{U: 0, V: 2})
	if _, _, err := profileEdges(bad); err == nil || err.Error() != "self-loop on vertex 5" {
		t.Fatalf("self-loop first: got %v", err)
	}
	bad[3] = kamsta.InputEdge{U: 1 << 32, V: 2}
	if _, _, err := profileEdges(bad); err == nil || err.Error() != "vertex labels must be in [1, 2^32): edge (4294967296,2)" {
		t.Fatalf("label range: got %v", err)
	}
}
