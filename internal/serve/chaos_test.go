package serve_test

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"kamsta"
	"kamsta/internal/bench"
	"kamsta/internal/obs"
	"kamsta/internal/serve"
	"kamsta/internal/serve/loadgen"
)

// chaosPEs is the width of each seed's one pool machine: pinned tenants pin
// to it, and injected faults are drawn over its ranks.
const chaosPEs = 2

// chaosTarget submits in-process — chaos rides in Request.Options — cancels
// a seeded share of the jobs it gets admitted, and holds every rejection and
// every result to the sweep's contract. quarantine is whether the seed
// switched quarantine on: only then may a job find its machine quarantined.
type chaosTarget struct {
	t          *testing.T
	seed       uint64
	s          *serve.Server
	cancelPct  uint32
	quarantine bool
}

func (tg chaosTarget) Submit(_ context.Context, req serve.Request) (loadgen.Handle, error) {
	j, err := tg.s.Submit(req)
	if err != nil {
		row := serve.RejectionOf(err)
		if !errors.Is(err, row.Err) {
			tg.t.Errorf("seed %d: untyped rejection %v", tg.seed, err)
		}
		return nil, err
	}
	h := chaosJob{tg: tg, j: j}
	h.class, h.allowed = chaosClass(req, tg.quarantine)
	// The draw rides on the job's instance, so it is deterministic in
	// (seed, tenant, index) like the chaos loadgen put into the request.
	if req.Edges[0].W%100 < tg.cancelPct {
		j.Cancel()
		h.class += "+cancel"
		h.allowed = append(h.allowed, "cancelled")
	}
	return h, nil
}

// chaosClass reads the chaos loadgen drew into a request and returns the
// outcomes a job of that class may end in: a hopeless deadline is a storm,
// fault-plan options are a panic or a stall, anything else is clean. With
// quarantine on, any job may also find its last machine quarantined; with it
// off, a contained fault must leave the machine in service.
func chaosClass(req serve.Request, quarantine bool) (class string, allowed []string) {
	switch {
	case req.Deadline > 0 && req.Deadline < time.Millisecond:
		class, allowed = "storm", []string{"deadline"}
	case len(req.Options) > 0:
		class, allowed = "fault", []string{"ok", "fault"}
	default:
		class, allowed = "clean", []string{"ok"}
	}
	if quarantine {
		allowed = append(allowed, "quarantined")
	}
	return class, allowed
}

// chaosJob is one admitted job: it must resolve within a minute, with an
// outcome its class allows.
type chaosJob struct {
	tg      chaosTarget
	j       *serve.Job
	class   string
	allowed []string
}

func (h chaosJob) Wait(context.Context) (*kamsta.Report, error) {
	lost := time.NewTimer(time.Minute)
	defer lost.Stop()
	select {
	case <-h.j.Done():
	case <-lost.C:
		h.tg.t.Errorf("seed %d: %s job %d unresolved after a minute: lost", h.tg.seed, h.class, h.j.ID())
		return nil, errors.New("job lost")
	}
	rep, err, _ := h.j.Result()
	outcome := serve.Outcome(err)
	if !slices.Contains(h.allowed, outcome) {
		h.tg.t.Errorf("seed %d: %s job %d ended %v (%s), want one of %v",
			h.tg.seed, h.class, h.j.ID(), err, outcome, h.allowed)
	}
	return rep, err
}

// runChaosSeed draws one server configuration and one load plan from the
// seed, runs the plan to completion and checks the exactly-once contract:
// one result per admitted job, ok results equal to Kruskal, and loadgen's
// per-tenant histogram equal to the server's counter and its Stats. It
// returns loadgen's per-tenant results.
func runChaosSeed(t *testing.T, seed uint64) []*loadgen.TenantResult {
	rng := rand.New(rand.NewSource(int64(seed)))
	reg := obs.NewRegistry()
	cfg := serve.Config{
		Pool:       []serve.PoolShape{{PEs: chaosPEs, Threads: 1, Count: 1}},
		QueueBound: 8 + rng.Intn(25),
		Metrics:    reg,
	}
	if rng.Intn(2) == 0 {
		cfg.Retry.MaxAttempts = 2 + rng.Intn(3)
	}
	if rng.Intn(3) == 0 {
		cfg.QuarantineAfter = 2 + rng.Intn(3)
	}
	if rng.Intn(2) == 0 {
		cfg.Batch.MaxJobs = 4
	}
	plan := loadgen.Plan{Seed: seed}
	for i := range 1 + rng.Intn(3) {
		tl := loadgen.TenantLoad{
			Name: fmt.Sprintf("t%d", i),
			Jobs: 3 + rng.Intn(8),
			Template: loadgen.Template{
				EdgeCount: 12 + rng.Intn(61),
				NoBatch:   rng.Intn(4) == 0,
				Verify:    true,
				Chaos: &loadgen.ChaosSpec{
					FaultFraction: 0.3 * rng.Float64(),
					StallFraction: 0.1 * rng.Float64(),
					StormFraction: 0.3 * rng.Float64(),
					PEs:           chaosPEs,
				},
			},
		}
		if rng.Intn(5) == 0 {
			tl.Template.PEs = chaosPEs
		}
		if rng.Intn(2) == 0 {
			tl.Workers = 1 + rng.Intn(3)
		} else {
			tl.RateHz = 1000 + 3000*rng.Float64()
		}
		plan.Tenants = append(plan.Tenants, tl)
	}

	s, err := serve.New(cfg)
	if err != nil {
		t.Fatalf("seed %d: New: %v", seed, err)
	}
	defer s.Close()
	target := chaosTarget{t: t, seed: seed, s: s, cancelPct: uint32(rng.Intn(30)),
		quarantine: cfg.QuarantineAfter > 0}
	res, err := loadgen.Run(context.Background(), target, plan)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if err := res.Verify(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	st := s.Stats()
	for _, tr := range res.Tenants {
		var ts serve.TenantStat // zero for a tenant shed before it registered
		for _, x := range st.Tenants {
			if x.Name == tr.Name {
				ts = x
			}
		}
		counted := map[string]int{}
		for outcome := range tr.Outcomes {
			counted[outcome] = int(reg.Counter("serve_jobs_completed_total", "",
				obs.L("tenant", tr.Name), obs.L("outcome", outcome)).Value())
		}
		if !maps.Equal(tr.Outcomes, counted) || int(ts.Submitted) != tr.Submitted ||
			int(ts.Completed) != tr.Completed() || ts.Queued != 0 {
			t.Fatalf("seed %d tenant %s: loadgen tallied %d admitted, %v; the server counted %v and %+v",
				seed, tr.Name, tr.Submitted, tr.Outcomes, counted, ts)
		}
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Drain(drainCtx); err != nil {
		t.Fatalf("seed %d: Drain: %v", seed, err)
	}
	return res.Tenants
}

// runQuarantineScenario is the sweep's one fixed plan: QuarantineAfter 2 on
// a one-machine pool, and two faulting jobs that are consecutive by
// construction. The first parks the machine in its observer while the
// second and a clean job queue behind it in one tenant's FIFO; its release
// lets both faults run back to back, which takes the machine out of service
// with the clean job still queued. Whichever way goroutines are scheduled,
// the jobs end fault, fault, quarantined — unlike a seed's open-loop
// tenants, whose arrival order decides whether a clean job runs between two
// faults. It returns the outcomes.
func runQuarantineScenario(t *testing.T) map[string]int {
	s, err := serve.New(serve.Config{
		Pool:            []serve.PoolShape{{PEs: chaosPEs, Threads: 1, Count: 1}},
		QueueBound:      8,
		QuarantineAfter: 2,
	})
	if err != nil {
		t.Fatalf("quarantine scenario: New: %v", err)
	}
	defer s.Close()
	edges := []kamsta.InputEdge{{U: 1, V: 2, W: 3}, {U: 2, V: 3, W: 1}, {U: 1, V: 3, W: 2}}
	submit := func(opts ...kamsta.RunOption) *serve.Job {
		j, err := s.Submit(serve.Request{Tenant: "q", Edges: edges, Options: opts})
		if err != nil {
			t.Fatalf("quarantine scenario: %v", err)
		}
		return j
	}
	parked, gate := make(chan struct{}), make(chan struct{})
	var once sync.Once
	first := submit(kamsta.WithObserver(func(kamsta.Event) {
		once.Do(func() { close(parked); <-gate })
		panic("chaos_test: first of two consecutive faults")
	}))
	select {
	case <-parked:
	case <-first.Done():
		t.Fatal("quarantine scenario: the first job ended before it held the machine")
	}
	jobs := []*serve.Job{first,
		submit(kamsta.WithObserver(func(kamsta.Event) { panic("chaos_test: second of two consecutive faults") })),
		submit()}
	close(gate)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	outcomes := map[string]int{}
	for i, want := range []string{"fault", "fault", "quarantined"} {
		_, err := jobs[i].Wait(ctx)
		outcomes[serve.Outcome(err)]++
		if got := serve.Outcome(err); got != want {
			t.Errorf("quarantine scenario: job %d ended %v (%s), want %s", i, err, got, want)
		}
	}
	return outcomes
}

// TestServiceChaosSweep drives 104 seeded loadgen plans — panics and stalls
// mid-job, client cancels, deadline storms, closed and open loops, across
// randomized retry, quarantine, batching and queue-bound configurations —
// through a live server, then proves the modeled clock still produces the
// golden cases: no state leaks out of any amount of service-level chaos.
// Across its seeds and its fixed quarantine scenario the sweep must see
// every outcome chaos can cause and at least one typed rejection, or it has
// stopped testing what it claims to. Run under -race in CI; -short keeps a
// representative prefix.
func TestServiceChaosSweep(t *testing.T) {
	n := 104
	if testing.Short() {
		n = 24
	}
	outcomes, rejected := runQuarantineScenario(t), 0
	for seed := uint64(1); seed <= uint64(n); seed++ {
		for _, tr := range runChaosSeed(t, seed) {
			for outcome, c := range tr.Outcomes {
				outcomes[outcome] += c
			}
			rejected += max(tr.Rejected, tr.Attempted-tr.Submitted)
		}
		if t.Failed() {
			t.FailNow()
		}
	}
	t.Logf("%d seeds and the quarantine scenario: outcomes %v, %d rejections", n, outcomes, rejected)
	for _, want := range []string{"ok", "fault", "deadline", "cancelled", "quarantined"} {
		if outcomes[want] == 0 {
			t.Errorf("no job ended %q across %d seeds and the quarantine scenario: %v", want, n, outcomes)
		}
	}
	if rejected == 0 {
		t.Errorf("no submission was rejected across %d seeds", n)
	}

	for _, gc := range bench.GoldenCases() {
		m, err := kamsta.NewMachine(kamsta.MachineConfig{PEs: gc.PEs})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := m.Compute(context.Background(), kamsta.FromSpec(gc.Spec), kamsta.WithAlgorithm(gc.Alg))
		m.Close()
		if err == nil {
			err = gc.Check(rep)
		}
		if err != nil {
			t.Errorf("golden %s after the sweep: %v", gc.Name, err)
		}
	}
}
