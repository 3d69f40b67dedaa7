// Package loadgen drives a serve.Server (in-process) or a remote mstserve
// (over HTTP) with multi-tenant job mixes: closed-loop worker pools that
// keep a fixed concurrency in flight, and open-loop Poisson arrivals at a
// target rate. It accounts every job exactly once — lost or duplicated
// results are a harness error, not a statistic — and returns per-tenant
// counts, outcomes and latency samples for the caller to summarise
// (cmd/mstload prints them).
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"kamsta"
	"kamsta/internal/faultinject"
	"kamsta/internal/graph"
	"kamsta/internal/seqmst"
	"kamsta/internal/serve"
)

// Target is where jobs go: an in-process server (Local) or a remote one
// (Remote).
type Target interface {
	Submit(ctx context.Context, req serve.Request) (Handle, error)
}

// Handle is one submitted job awaiting its result.
type Handle interface {
	Wait(ctx context.Context) (*kamsta.Report, error)
}

// Local targets an in-process serve.Server.
func Local(s *serve.Server) Target { return localTarget{s} }

type localTarget struct{ s *serve.Server }

func (lt localTarget) Submit(_ context.Context, req serve.Request) (Handle, error) {
	return lt.s.Submit(req)
}

// Remote targets a running mstserve over its HTTP API.
func Remote(c *serve.Client) Target { return remoteTarget{c} }

type remoteTarget struct{ c *serve.Client }

func (rt remoteTarget) Submit(ctx context.Context, req serve.Request) (Handle, error) {
	return rt.c.Submit(ctx, req)
}

// Template describes the jobs one tenant submits. Exactly one of Spec or
// EdgeCount must be set.
type Template struct {
	Algorithm kamsta.Algorithm
	// Spec submits generated-instance jobs (the per-job index is added to
	// its seed so instances vary).
	Spec *kamsta.GraphSpec
	// EdgeCount submits random edge-list jobs of this size over Vertices
	// labels (default 2+EdgeCount/3) — the batchable small-job shape.
	EdgeCount int
	Vertices  int
	// Deadline, PEs and NoBatch pass through to the request.
	Deadline time.Duration
	PEs      int
	NoBatch  bool
	// Verify cross-checks every result against sequential Kruskal
	// (edge-list jobs only) — the load test doubles as a correctness
	// sweep.
	Verify bool
	// Chaos seeds per-job service-level faults (see ChaosSpec). Fault
	// plans ride in Request.Options, so chaos loads target in-process
	// servers only (Local); a Remote target rejects them client-side.
	Chaos *ChaosSpec
}

// ChaosSpec injects seeded chaos into a tenant's offered load: each job
// independently draws one behavior, deterministic in (plan seed, tenant,
// job index) like everything else loadgen generates. Fractions are
// cumulative probabilities and should sum to ≤ 1.
type ChaosSpec struct {
	// FaultFraction of jobs panic on one PE mid-run (the Machine contains
	// the fault; with server-side retries enabled they usually still
	// succeed).
	FaultFraction float64
	// StallFraction of jobs stall one PE past a tight per-job stall
	// timeout, so the watchdog kills them.
	StallFraction float64
	// StormFraction of jobs arrive with a hopeless deadline — they must be
	// shed at admission or fail fast with outcome "deadline".
	StormFraction float64
	// PEs is the world width faults are drawn over (default 2).
	PEs int
}

// TenantLoad is one tenant's traffic. Workers > 0 selects the closed loop
// (that many concurrent submitters, each waiting for its result before the
// next job; rejections back off and retry). RateHz > 0 selects the open
// loop (Poisson arrivals at that rate; rejections drop the job, as lost
// offered load). Exactly one of the two must be set.
type TenantLoad struct {
	Name     string
	Workers  int
	RateHz   float64
	Jobs     int
	Template Template
}

// Plan is a full load-generation run.
type Plan struct {
	Tenants []TenantLoad
	// Seed drives instance generation and Poisson arrivals.
	Seed uint64
	// Duration caps the run (0 = until every tenant submitted its Jobs).
	Duration time.Duration
}

// TenantResult is one tenant's accounting after a run.
type TenantResult struct {
	Name string
	// Attempted counts generated jobs; Submitted the admitted ones;
	// Rejected the admission rejections (closed-loop retries count every
	// rejection event, so Rejected may exceed Attempted there); Shed the
	// subset of rejections where the server shed load deliberately
	// (deadline-aware shedding or brownout) rather than overflowing a
	// bound.
	Attempted int
	Submitted int
	Rejected  int
	Shed      int
	// Outcomes tallies results by serve.Outcome — the word the server's
	// own completion counter used. Their sum must equal Submitted
	// (exactly-once delivery).
	Outcomes map[string]int
	// Latencies are submit-to-result seconds of all resolved jobs.
	Latencies []float64
	// RejectLatencies are submit-to-rejection seconds — how long the
	// server took to say no. A resilient server rejects in microseconds;
	// the overload experiment pins their p99 far under the median job
	// time (rejecting slowly is just a worse way of being overloaded).
	RejectLatencies []float64
	// BadResults counts Verify mismatches (0 unless Template.Verify).
	BadResults int
}

// Completed is the number of jobs that resolved with any outcome.
func (tr *TenantResult) Completed() int {
	n := 0
	for _, c := range tr.Outcomes {
		n += c
	}
	return n
}

// Percentile returns the p-th latency percentile in seconds (p in [0,100]).
func (tr *TenantResult) Percentile(p float64) float64 {
	return percentile(tr.Latencies, p)
}

// RejectPercentile returns the p-th rejection-latency percentile.
func (tr *TenantResult) RejectPercentile(p float64) float64 {
	return percentile(tr.RejectLatencies, p)
}

func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	idx := int(p / 100 * float64(len(sorted)-1))
	return sorted[idx]
}

// Result is the outcome of Run.
type Result struct {
	Elapsed time.Duration
	Tenants []*TenantResult
	// Server is an optional post-run server snapshot the caller may attach
	// (mstload does) so the exhibit can record server-side robustness
	// counters — retries, quarantined machines — alongside client-side
	// accounting.
	Server *serve.Stats
}

// Verify checks the exactly-once invariant: every admitted job produced
// exactly one result, and no verified result was wrong.
func (r *Result) Verify() error {
	for _, tr := range r.Tenants {
		if got := tr.Completed(); got != tr.Submitted {
			return fmt.Errorf("loadgen: tenant %s: %d results for %d admitted jobs (lost or duplicated)",
				tr.Name, got, tr.Submitted)
		}
		if tr.BadResults > 0 {
			return fmt.Errorf("loadgen: tenant %s: %d results disagree with sequential Kruskal",
				tr.Name, tr.BadResults)
		}
	}
	return nil
}

// tenantState is the mutable accounting behind one TenantResult.
type tenantState struct {
	mu  sync.Mutex
	res *TenantResult
	// refs caches per-job-index Kruskal references when Verify is on.
	refs sync.Map // int64 → reference
}

// reference is the sequential Kruskal answer one verified job is checked
// against.
type reference struct {
	weight uint64
	edges  int
}

// Run executes the plan against target and returns the accounting. It
// returns when every tenant finished (or the plan Duration / ctx expired —
// in-flight jobs are still awaited so accounting stays exact).
func Run(ctx context.Context, target Target, plan Plan) (*Result, error) {
	if len(plan.Tenants) == 0 {
		return nil, fmt.Errorf("loadgen: empty plan")
	}
	for _, tl := range plan.Tenants {
		if (tl.Workers > 0) == (tl.RateHz > 0) {
			return nil, fmt.Errorf("loadgen: tenant %s: exactly one of Workers or RateHz must be set", tl.Name)
		}
		if (tl.Template.Spec != nil) == (tl.Template.EdgeCount > 0) {
			return nil, fmt.Errorf("loadgen: tenant %s: exactly one of Spec or EdgeCount must be set", tl.Name)
		}
	}
	runCtx := ctx
	if plan.Duration > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, plan.Duration)
		defer cancel()
	}

	start := time.Now()
	res := &Result{}
	var wg sync.WaitGroup
	for ti, tl := range plan.Tenants {
		st := &tenantState{res: &TenantResult{Name: tl.Name, Outcomes: map[string]int{}}}
		res.Tenants = append(res.Tenants, st.res)
		wg.Add(1)
		go func(ti int, tl TenantLoad, st *tenantState) {
			defer wg.Done()
			if tl.Workers > 0 {
				runClosedLoop(runCtx, target, plan, ti, tl, st)
			} else {
				runOpenLoop(runCtx, target, plan, ti, tl, st)
			}
		}(ti, tl, st)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	return res, nil
}

// runClosedLoop keeps tl.Workers jobs in flight until tl.Jobs have been
// submitted and resolved. Admission rejections back off briefly and retry
// the same job, so closed-loop tenants never lose work to back-pressure.
func runClosedLoop(ctx context.Context, target Target, plan Plan, ti int, tl TenantLoad, st *tenantState) {
	var next atomic.Int64 // the next job index to hand out
	var wg sync.WaitGroup
	for w := 0; w < tl.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				idx := next.Add(1) - 1
				if idx >= int64(tl.Jobs) || ctx.Err() != nil {
					return
				}
				st.attempt()
				req := buildRequest(plan, ti, tl, idx)
				for {
					rejectStart := time.Now()
					h, err := target.Submit(ctx, req)
					if err == nil {
						st.admitted()
						submitTime := time.Now()
						rep, werr := h.Wait(ctx)
						st.resolve(plan, ti, tl, idx, rep, werr, time.Since(submitTime))
						break
					}
					if ctx.Err() != nil {
						return // the run is over; not a rejection to account
					}
					// Only an overflowed bound asks for the same job again.
					// A shed rejection is the server saying "not this job,
					// not now" — a closed-loop client gives the job up
					// rather than hammer a degraded server.
					resend := serve.RejectionOf(err).Class == serve.Backpressure
					st.rejected(err, time.Since(rejectStart), resend)
					if !resend {
						break
					}
					select {
					case <-time.After(backoffHint(err)):
					case <-ctx.Done():
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// runOpenLoop submits tl.Jobs at Poisson arrivals of tl.RateHz,
// independent of service time. Rejections drop the job — offered load the
// server shed — and in-flight waits are gathered before returning.
func runOpenLoop(ctx context.Context, target Target, plan Plan, ti int, tl TenantLoad, st *tenantState) {
	rng := rand.New(rand.NewSource(int64(plan.Seed) ^ int64(ti)<<32 ^ 0x9e3779b9))
	var wg sync.WaitGroup
	for idx := int64(0); idx < int64(tl.Jobs); idx++ {
		gap := time.Duration(rng.ExpFloat64() / tl.RateHz * float64(time.Second))
		select {
		case <-time.After(gap):
		case <-ctx.Done():
			wg.Wait()
			return
		}
		st.attempt()
		req := buildRequest(plan, ti, tl, idx)
		rejectStart := time.Now()
		h, err := target.Submit(ctx, req)
		if err != nil {
			st.rejected(err, time.Since(rejectStart), true)
			continue
		}
		st.admitted()
		submitTime := time.Now()
		wg.Add(1)
		go func(idx int64, h Handle) {
			defer wg.Done()
			// Wait on the background context: the arrival window closing
			// must not orphan admitted jobs, or accounting would leak.
			rep, werr := h.Wait(context.Background())
			st.resolve(plan, ti, tl, idx, rep, werr, time.Since(submitTime))
		}(idx, h)
	}
	wg.Wait()
}

// buildRequest renders job idx of a tenant: deterministic in (plan seed,
// tenant index, job index) so reruns offer identical load.
func buildRequest(plan Plan, ti int, tl TenantLoad, idx int64) serve.Request {
	req := serve.Request{
		Tenant:    tl.Name,
		Algorithm: tl.Template.Algorithm,
		Seed:      plan.Seed,
		Deadline:  tl.Template.Deadline,
		PEs:       tl.Template.PEs,
		NoBatch:   tl.Template.NoBatch,
	}
	if tl.Template.Spec != nil {
		spec := *tl.Template.Spec
		spec.Seed += uint64(idx)
		req.Spec = &spec
	} else {
		req.Edges = randomEdges(jobSeed(plan.Seed, ti, idx), tl.Template.EdgeCount, tl.Template.Vertices)
	}
	if tl.Template.Chaos != nil {
		applyChaos(&req, tl.Template.Chaos, jobSeed(plan.Seed, ti, idx))
	}
	return req
}

// applyChaos draws job-level chaos deterministically from the job's seed:
// an injected panic, a stall past a tight watchdog, or a hopeless deadline.
func applyChaos(req *serve.Request, ch *ChaosSpec, seed int64) {
	rng := rand.New(rand.NewSource(seed ^ 0x5ca1ab1e))
	pes := ch.PEs
	if pes < 1 {
		pes = 2
	}
	r := rng.Float64()
	switch {
	case r < ch.FaultFraction:
		plan := faultinject.NewPlan(&faultinject.Rule{
			Site: faultinject.SiteCollective, Rank: rng.Intn(pes),
			Occurrence: rng.Intn(4), Action: faultinject.ActPanic,
		})
		req.Options = append(req.Options, kamsta.WithFaultInjection(plan))
	case r < ch.FaultFraction+ch.StallFraction:
		plan := faultinject.NewPlan(&faultinject.Rule{
			Site: faultinject.SiteCollective, Rank: rng.Intn(pes),
			Occurrence: rng.Intn(4), Action: faultinject.ActDelay,
			Delay: 50 * time.Millisecond,
		})
		req.Options = append(req.Options,
			kamsta.WithFaultInjection(plan), kamsta.WithStallTimeout(5*time.Millisecond))
	case r < ch.FaultFraction+ch.StallFraction+ch.StormFraction:
		req.Deadline = time.Microsecond
	}
}

func jobSeed(seed uint64, ti int, idx int64) int64 {
	return int64(seed)*1_000_003 + int64(ti)*7_777_777 + idx
}

// randomEdges builds a connected random instance: a spanning path plus
// random extra edges, labels in [1, n].
func randomEdges(seed int64, m, n int) []kamsta.InputEdge {
	if n <= 1 {
		n = 2 + m/3
	}
	rng := rand.New(rand.NewSource(seed))
	edges := make([]kamsta.InputEdge, 0, m+n)
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

// Accounting. attempt/admitted/rejected/resolve each touch the tenant's
// result under its lock; resolve classifies the outcome and, with Verify
// on, cross-checks the result against a cached Kruskal reference.
func (st *tenantState) attempt() {
	st.mu.Lock()
	st.res.Attempted++
	st.mu.Unlock()
}

func (st *tenantState) admitted() {
	st.mu.Lock()
	st.res.Submitted++
	st.mu.Unlock()
}

// rejected accounts one refused submission: how long the server took to say
// no, whether it shed the job on purpose, and — count — whether the event
// goes into Rejected (open loops count every rejection, closed loops the
// ones they resend; a job given up shows as Attempted minus Submitted).
func (st *tenantState) rejected(err error, lat time.Duration, count bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.res.RejectLatencies = append(st.res.RejectLatencies, lat.Seconds())
	if count {
		st.res.Rejected++
	}
	if serve.RejectionOf(err).Class == serve.Shed {
		st.res.Shed++
	}
}

func (st *tenantState) resolve(plan Plan, ti int, tl TenantLoad, idx int64, rep *kamsta.Report, err error, lat time.Duration) {
	bad := false
	if err == nil && tl.Template.Verify && tl.Template.EdgeCount > 0 {
		want := st.referenceFor(plan, ti, tl, idx)
		bad = rep.TotalWeight != want.weight || rep.NumEdges != want.edges
	}
	st.mu.Lock()
	st.res.Outcomes[serve.Outcome(err)]++
	st.res.Latencies = append(st.res.Latencies, lat.Seconds())
	if bad {
		st.res.BadResults++
	}
	st.mu.Unlock()
}

// referenceFor computes (and caches) the sequential Kruskal answer for job
// idx's instance.
func (st *tenantState) referenceFor(plan Plan, ti int, tl TenantLoad, idx int64) reference {
	if cached, ok := st.refs.Load(idx); ok {
		return cached.(reference)
	}
	in := randomEdges(jobSeed(plan.Seed, ti, idx), tl.Template.EdgeCount, tl.Template.Vertices)
	work := make([]graph.Edge, len(in))
	maxV := uint64(0)
	for i, e := range in {
		work[i] = graph.NewEdge(e.U, e.V, e.W)
		maxV = max(maxV, e.U, e.V)
	}
	r := seqmst.Kruskal(int(maxV), work)
	want := reference{weight: r.TotalWeight, edges: len(r.Edges)}
	st.refs.Store(idx, want)
	return want
}

// backoffHint is the closed-loop retry pause: the server's Retry-After
// hint when present (capped so a test-scale loop stays fast), else 1ms.
func backoffHint(err error) time.Duration {
	var ra *serve.RetryAfterError
	if errors.As(err, &ra) && ra.RetryAfter > 0 {
		return min(ra.RetryAfter, 100*time.Millisecond)
	}
	return time.Millisecond
}
