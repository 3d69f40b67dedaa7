// Package serve turns the persistent kamsta.Machine into a multi-tenant
// MST-as-a-service job server: a pool of warm machines across configured
// shapes, a bounded queue with per-tenant admission control and
// weighted-fair (stride) scheduling, transparent batching of small edge-list
// jobs onto one world, per-job deadlines that cover queue wait, and full
// observability. cmd/mstserve exposes it over HTTP; internal/serve/loadgen
// drives it with open- and closed-loop tenant mixes.
//
// Lifecycle: New starts one worker goroutine per pool machine; Submit
// admits (or rejects) jobs; Job.Wait delivers each result exactly once;
// Drain stops admission and lets queued work finish (bounded by its ctx);
// Close aborts in-flight jobs at their next collective boundary. Faults are
// already contained by the Machine (panics surface as *kamsta.JobError and
// broken worlds rebuild transparently), so one tenant's poisoned job cannot
// take the service down.
package serve

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"kamsta"
	"kamsta/internal/obs"
)

// PoolShape describes one machine configuration in the pool.
type PoolShape struct {
	// PEs and Threads mirror kamsta.MachineConfig.
	PEs     int
	Threads int
	// Count is how many machines of this shape to keep warm (default 1).
	Count int
}

// TenantConfig declares one tenant and its fair-share weight (≥1; a tenant
// with weight 2 gets twice the machine slots of a tenant with weight 1
// under contention).
type TenantConfig struct {
	Name   string
	Weight int
}

// BatchConfig bounds the transparent batching of small edge-list jobs.
// Jobs are batchable when they supply Edges, are not marked NoBatch, use a
// union-decomposable algorithm (borůvka, filter-borůvka), carry no custom
// RunOptions, and fit the per-job limits; a batch shares one Compute on a
// disjoint vertex relabeling, and the forest is split back per member.
type BatchConfig struct {
	// MaxJobs is the largest batch (≤1 disables batching).
	MaxJobs int
	// MaxEdges caps the summed edge count of a batch (default 65536).
	MaxEdges int
}

// Config configures a Server. The zero value serves: one 4-PE machine, a
// 1024-job queue, auto-registered tenants with weight 1, no batching, no
// deadlines.
type Config struct {
	// Pool lists the machine shapes to keep warm (default one {PEs: 4,
	// Threads: 1, Count: 1}).
	Pool []PoolShape
	// Transport and Workers select every pooled machine's substrate backend
	// (kamsta.MachineConfig.Transport/Workers): "" or "shm" runs in-process,
	// "tcp" makes every machine lead a distributed world over the given
	// mstworker addresses (one worker process serves many machines; each
	// connection gets its own world). A distributed machine that loses a
	// worker is condemned, not rebuilt, and leaves service.
	Transport string
	Workers   []string
	// Tenants pre-registers tenants with weights. Unknown tenants are
	// auto-registered with DefaultWeight, or rejected when it is 0 and
	// Tenants is non-empty (a closed server).
	Tenants       []TenantConfig
	DefaultWeight int
	// QueueBound caps the total queued jobs (default 1024);
	// TenantQueueBound caps one tenant's share (default QueueBound).
	QueueBound       int
	TenantQueueBound int
	// DefaultDeadline applies to jobs that set none; MaxDeadline clamps
	// every job (0 = unlimited). Deadlines start at admission, so they
	// bound queue wait plus run time.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// Batch enables transparent batching of small edge-list jobs.
	Batch BatchConfig
	// StallTimeout is passed to every job (kamsta.WithStallTimeout);
	// 0 leaves the Machine default.
	StallTimeout time.Duration
	// ResultTTL is how long finished jobs stay pollable (default 10m).
	ResultTTL time.Duration
	// AllowFiles permits HTTP jobs that read server-local graph files
	// (in-process submissions may always use File).
	AllowFiles bool

	// ShedMinSamples gates deadline-aware admission shedding: until the
	// service-time estimator has seen this many dispatches (default 16)
	// the server admits everything — a cold server must not guess.
	// Negative disables shedding. ShedQuantile is the service-time
	// quantile the queue-wait estimate uses (default 0.9: plan for a
	// slow-ish job ahead, not the average one).
	ShedMinSamples int
	ShedQuantile   float64
	// BrownoutFraction is the queue depth, as a fraction of QueueBound, at
	// which the server browns out: batching stops and batch-eligible small
	// jobs are shed at admission (default 0.75; ≥1 means brownout only on
	// quarantine).
	BrownoutFraction float64
	// QuarantineAfter removes a machine from service after that many
	// consecutive contained faults (0 disables — the default, so fault-
	// injection tests keep their machines). A machine that stops being
	// Healthy leaves service whatever this says. Either way, queued jobs no
	// live machine can serve fail with ErrShapeQuarantined.
	QuarantineAfter int
	// Retry bounds server-side transparent retries of fault-killed jobs
	// (see RetryConfig; zero value disables).
	Retry RetryConfig
	// MaxRequestBytes caps an HTTP job submission body (default 64 MiB).
	MaxRequestBytes int64

	// Metrics receives the serve_* series (nil keeps them unexported); Trace
	// receives job spans.
	Metrics *obs.Registry
	Trace   *kamsta.Trace
}

// Request describes one job. Exactly one of Spec, Edges, File or Source
// must be set.
type Request struct {
	// Tenant is the submitting tenant (required).
	Tenant string
	// Algorithm selects the MST algorithm ("" = borůvka).
	Algorithm kamsta.Algorithm
	// Seed drives generation and sampling.
	Seed uint64
	// Deadline bounds queue wait plus run time (0 = Config default).
	Deadline time.Duration
	// PEs pins the job to machines of that shape (0 = any).
	PEs int
	// NoBatch opts this job out of transparent batching.
	NoBatch bool

	// Spec generates one of the paper's graph families in-world.
	Spec *kamsta.GraphSpec
	// Edges supplies the graph directly (labels in [1, 2^32)); only
	// edge-list jobs are batchable.
	Edges []kamsta.InputEdge
	// File ingests an on-disk instance; FileFormat as in
	// kamsta.FromFileFormat ("" = auto).
	File       string
	FileFormat string
	// Source is an in-process escape hatch for a custom kamsta.Source
	// (not reachable over HTTP).
	Source kamsta.Source

	// Options appends extra RunOptions (in-process only; used by the
	// fault-injection tests). Jobs with Options never batch.
	Options []kamsta.RunOption
}

// Job is one admitted job. Its result is delivered exactly once via Wait
// (or polled via Result); the job context is cancelled when it finishes.
type Job struct {
	id     uint64
	tenant string
	req    Request
	ten    *tenant

	// maxV/verts cache the edge-list profile for batching (max label,
	// distinct vertex count).
	maxV  uint64
	verts int

	ctx       context.Context
	cancel    context.CancelFunc
	unwatch   func() // stops the queued-deadline fast-fail watcher
	attempts  int    // dispatch attempts so far (serialized: worker → retry timer → worker)
	submitted time.Time
	started   atomic.Int64 // unix nanos at dispatch; 0 while queued
	finished  atomic.Int64 // unix nanos at finish; retention sweeping

	done chan struct{}
	once sync.Once
	rep  *kamsta.Report
	err  error
}

// ID returns the server-assigned job id.
func (j *Job) ID() uint64 { return j.id }

// Tenant returns the submitting tenant.
func (j *Job) Tenant() string { return j.tenant }

// Done is closed when the result is available.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks for the result or the caller's ctx, whichever first. The
// job's own deadline fires through its result error, not through Wait.
func (j *Job) Wait(ctx context.Context) (*kamsta.Report, error) {
	select {
	case <-j.done:
		return j.rep, j.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Result polls without blocking; ok reports whether the job finished.
func (j *Job) Result() (rep *kamsta.Report, err error, ok bool) {
	select {
	case <-j.done:
		return j.rep, j.err, true
	default:
		return nil, nil, false
	}
}

// Status reports "queued", "running" or "done".
func (j *Job) Status() string {
	select {
	case <-j.done:
		return "done"
	default:
	}
	if j.started.Load() != 0 {
		return "running"
	}
	return "queued"
}

// Cancel cancels the job's context. A queued job is withdrawn and fails
// immediately; a running single job unwinds at its next collective
// boundary; a job inside a batch is best-effort (the shared run continues
// for the surviving members and the cancelled one is dropped at the end).
func (j *Job) Cancel() { j.cancel() }

// poolMachine is one warm machine plus its shape and health state.
type poolMachine struct {
	m     *kamsta.Machine
	shape PoolShape
	busy  atomic.Bool
	// consecFaults counts consecutive dispatches that died on a contained
	// fault (reset by any success). quarantined marks a machine out of
	// service — at Config.QuarantineAfter, or dead; its worker exits. The
	// pool's flags are the live-machine census (Server.live).
	consecFaults atomic.Int64
	quarantined  atomic.Bool
}

// Server is the multi-tenant job server.
type Server struct {
	cfg      Config
	sched    *scheduler
	sm       *serveMetrics
	shed     *shedder
	machines []*poolMachine

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup
	ids        atomic.Uint64
	running    atomic.Int64

	brownoutHi int // queue depth that flips brownout on

	retryMu      sync.Mutex
	pending      map[uint64]*pendingRetry // jobs waiting out a retry backoff
	retryStopped bool

	teardownOnce sync.Once

	jobsMu  sync.Mutex
	jobs    map[uint64]*Job
	submits uint64 // sweep trigger, guarded by jobsMu
}

// New validates cfg, builds the machine pool and starts one worker per
// machine. The caller must Drain or Close the server.
func New(cfg Config) (*Server, error) {
	if len(cfg.Pool) == 0 {
		cfg.Pool = []PoolShape{{PEs: 4, Threads: 1, Count: 1}}
	}
	if cfg.QueueBound <= 0 {
		cfg.QueueBound = 1024
	}
	if cfg.TenantQueueBound <= 0 {
		cfg.TenantQueueBound = cfg.QueueBound
	}
	if len(cfg.Tenants) == 0 && cfg.DefaultWeight <= 0 {
		cfg.DefaultWeight = 1 // open server: anyone may submit at weight 1
	}
	if cfg.Batch.MaxJobs > 1 && cfg.Batch.MaxEdges <= 0 {
		cfg.Batch.MaxEdges = 65536
	}
	if cfg.ResultTTL <= 0 {
		cfg.ResultTTL = 10 * time.Minute
	}
	if cfg.ShedMinSamples == 0 {
		cfg.ShedMinSamples = 16
	}
	if cfg.ShedQuantile <= 0 || cfg.ShedQuantile > 1 {
		cfg.ShedQuantile = 0.9
	}
	if cfg.BrownoutFraction <= 0 {
		cfg.BrownoutFraction = 0.75
	}
	if cfg.Retry.MaxAttempts > 1 {
		cfg.Retry = cfg.Retry.withDefaults()
	}
	if cfg.MaxRequestBytes <= 0 {
		cfg.MaxRequestBytes = 64 << 20
	}
	seen := make(map[[2]int]bool, len(cfg.Pool))
	for _, shape := range cfg.Pool {
		k := [2]int{shape.PEs, shape.Threads}
		if seen[k] {
			return nil, fmt.Errorf("serve: duplicate pool shape %dx%d (use Count to size a shape)", shape.PEs, shape.Threads)
		}
		seen[k] = true
	}

	s := &Server{
		cfg:     cfg,
		shed:    newShedder(cfg),
		pending: make(map[uint64]*pendingRetry),
		jobs:    make(map[uint64]*Job),
	}
	s.sched = newScheduler(cfg.QueueBound, cfg.TenantQueueBound, cfg.DefaultWeight,
		func(j *Job) bool { return s.live(j.req.PEs) > 0 })
	s.brownoutHi = int(cfg.BrownoutFraction * float64(cfg.QueueBound))
	if s.brownoutHi < 1 {
		s.brownoutHi = 1
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	for _, tc := range cfg.Tenants {
		if tc.Name == "" {
			return nil, fmt.Errorf("serve: tenant with empty name")
		}
		if s.sched.tenants[tc.Name] != nil {
			return nil, fmt.Errorf("serve: duplicate tenant %q", tc.Name)
		}
		s.sched.register(tc.Name, tc.Weight)
	}
	for _, shape := range cfg.Pool {
		count := shape.Count
		if count <= 0 {
			count = 1
		}
		for i := 0; i < count; i++ {
			m, err := kamsta.NewMachine(kamsta.MachineConfig{
				PEs: shape.PEs, Threads: shape.Threads, Metrics: cfg.Metrics,
				Transport: cfg.Transport, Workers: cfg.Workers,
			})
			if err != nil {
				for _, pm := range s.machines {
					pm.m.Close()
				}
				s.baseCancel()
				return nil, fmt.Errorf("serve: pool shape %dx%d: %w", shape.PEs, shape.Threads, err)
			}
			s.machines = append(s.machines, &poolMachine{m: m, shape: shape})
		}
	}
	s.sm = newServeMetrics(cfg.Metrics, s)
	for _, pm := range s.machines {
		s.wg.Add(1)
		go s.worker(pm)
	}
	return s, nil
}

// Submit validates and admits one job. The job's deadline clock starts
// now — queue wait counts against it. Every rejection is a row of the
// rejection table (outcome.go): its sentinel, or an error wrapping it.
func (s *Server) Submit(req Request) (*Job, error) {
	j, err := s.admit(req)
	if err != nil {
		s.sm.rejected(s.sched.lookup(req.Tenant), req.Tenant, rejectionOf(err))
		return nil, err
	}
	s.sm.inc(&j.ten.series.submitted, &famSubmitted, j.tenant, "")
	s.remember(j)
	return j, nil
}

func (s *Server) admit(req Request) (*Job, error) {
	if req.Tenant == "" {
		return nil, fmt.Errorf("%w: missing tenant", ErrBadRequest)
	}
	sources := 0
	for _, have := range []bool{req.Spec != nil, req.Edges != nil, req.File != "", req.Source != nil} {
		if have {
			sources++
		}
	}
	if sources != 1 {
		return nil, fmt.Errorf("%w: need exactly one of spec, edges, file or source (got %d)", ErrBadRequest, sources)
	}
	if req.Algorithm != "" {
		if _, err := kamsta.ParseAlgorithm(string(req.Algorithm)); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
	}
	if req.PEs != 0 {
		found := false
		for _, shape := range s.cfg.Pool {
			if shape.PEs == req.PEs {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("%w: %d PEs", ErrNoSuchShape, req.PEs)
		}
	}
	j := &Job{
		id:        s.ids.Add(1),
		tenant:    req.Tenant,
		req:       req,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	if req.Edges != nil {
		maxV, verts, err := profileEdges(req.Edges)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		j.maxV, j.verts = maxV, verts
	}
	d := req.Deadline
	if d <= 0 {
		d = s.cfg.DefaultDeadline
	}
	if s.cfg.MaxDeadline > 0 && (d <= 0 || d > s.cfg.MaxDeadline) {
		d = s.cfg.MaxDeadline
	}
	if d > 0 {
		j.ctx, j.cancel = context.WithTimeout(s.baseCtx, d)
	} else {
		j.ctx, j.cancel = context.WithCancel(s.baseCtx)
	}
	if err := s.overloadCheck(j, d); err != nil {
		j.cancel()
		// Shedding happens before auto-registration: only a known tenant
		// has a counter to charge.
		if t := s.sched.lookup(req.Tenant); t != nil {
			t.rejected.Add(1)
		}
		return nil, err
	}
	// The fast-fail watcher: if the deadline (or a cancel) fires while the
	// job is still queued, it is withdrawn and failed immediately instead
	// of waiting for a worker to discover the corpse. Registered before
	// submit so a worker can never observe a half-initialized watcher.
	stop := context.AfterFunc(j.ctx, func() {
		if s.sched.remove(j) {
			s.finishJob(j, nil, j.ctx.Err())
		}
	})
	j.unwatch = func() { stop() }
	if err := s.sched.submit(j); err != nil {
		j.cancel()
		if RejectionOf(err).Class == Backpressure {
			err = &RetryAfterError{Err: err, RetryAfter: s.shed.drainHint(req.PEs, 1, s.live(req.PEs))}
		}
		return nil, err
	}
	return j, nil
}

// overloadCheck is the admission-time shedding gate, run after validation
// and deadline resolution but before the job enters the queue: quarantine
// (no live machine could ever serve it), brownout (degraded server sheds
// batch-eligible small jobs first), and deadline-aware shedding (the
// estimated queue wait alone would burn the whole deadline).
func (s *Server) overloadCheck(j *Job, d time.Duration) error {
	machines := s.live(j.req.PEs)
	// Refused here first so a quarantined shape is not shed with a retry
	// hint no machine will honour; the scheduler's admission re-checks
	// under its lock, for a quarantine that lands in between.
	if machines == 0 {
		return ErrShapeQuarantined
	}
	depth := s.sched.depth()
	if _, batchable := batchKeyOf(j, s.cfg.Batch); batchable && s.brownout() {
		return &RetryAfterError{Err: ErrBrownout,
			RetryAfter: s.shed.drainHint(j.req.PEs, depth-s.brownoutHi+1, machines)}
	}
	return s.shed.shedCheck(j.req.PEs, depth, machines, d)
}

// live counts the machines in service that can run a job pinned to pes
// (0 = any) — the census admission, shedding and readiness read.
func (s *Server) live(pes int) int {
	n := 0
	for _, pm := range s.machines {
		if !pm.quarantined.Load() && (pes == 0 || pm.shape.PEs == pes) {
			n++
		}
	}
	return n
}

// profileEdges validates labels the way kamsta.FromEdges will and returns
// the max label and distinct vertex count (the batch planner's inputs),
// from a bitmap when it takes no more than a sort's 16 bytes per edge.
func profileEdges(edges []kamsta.InputEdge) (maxV uint64, verts int, err error) {
	for _, e := range edges {
		if e.U == 0 || e.V == 0 || e.U >= 1<<32 || e.V >= 1<<32 {
			return 0, 0, fmt.Errorf("vertex labels must be in [1, 2^32): edge (%d,%d)", e.U, e.V)
		}
		if e.U == e.V {
			return 0, 0, fmt.Errorf("self-loop on vertex %d", e.U)
		}
		maxV = max(maxV, e.U, e.V)
	}
	if maxV <= 128*uint64(len(edges)) {
		seen := make([]uint64, maxV/64+1)
		for _, e := range edges {
			seen[e.U/64] |= 1 << (e.U % 64)
			seen[e.V/64] |= 1 << (e.V % 64)
		}
		for _, w := range seen {
			verts += bits.OnesCount64(w)
		}
		return maxV, verts, nil
	}
	ends := make([]uint64, 0, 2*len(edges))
	for _, e := range edges {
		ends = append(ends, e.U, e.V)
	}
	slices.Sort(ends)
	for i, v := range ends {
		if i == 0 || v != ends[i-1] {
			verts++
		}
	}
	return maxV, verts, nil
}

// worker serves one pool machine until the scheduler tells it to exit or
// the machine is quarantined. During brownout, batching is disabled: a
// degraded pool should not multiply the blast radius of one faulting world
// across coalesced jobs.
func (s *Server) worker(pm *poolMachine) {
	defer s.wg.Done()
	for {
		bc := s.cfg.Batch
		if bc.MaxJobs > 1 && s.brownout() {
			bc = BatchConfig{}
		}
		jobs := s.sched.next(pm.shape.PEs, bc)
		if jobs == nil {
			return
		}
		s.dispatch(pm, jobs)
		if pm.quarantined.Load() {
			return
		}
	}
}

// dispatch runs one fair pick — a single job or a batch — on pm. Jobs whose
// deadline expired while queued fail here without touching the machine.
func (s *Server) dispatch(pm *poolMachine, jobs []*Job) {
	now := time.Now()
	live := jobs[:0]
	for _, j := range jobs {
		j.started.Store(now.UnixNano())
		s.sm.queueWait.Observe(now.Sub(j.submitted).Seconds())
		if err := j.ctx.Err(); err != nil {
			s.finishJob(j, nil, err)
			continue
		}
		// ctx.Err() learns of expiry from a runtime timer the job can
		// outrun; the deadline itself cannot be outrun. An expired job
		// never touches the machine.
		if dl, ok := j.ctx.Deadline(); ok && !now.Before(dl) {
			s.finishJob(j, nil, context.DeadlineExceeded)
			continue
		}
		live = append(live, j)
	}
	if len(live) == 0 {
		return
	}
	pm.busy.Store(true)
	s.running.Add(int64(len(live)))
	defer func() {
		pm.busy.Store(false)
		s.running.Add(-int64(len(live)))
	}()
	if len(live) == 1 {
		start := time.Now()
		rep, err := pm.m.Compute(live[0].ctx, s.source(live[0].req), s.runOptions(live[0].req)...)
		sec := time.Since(start).Seconds()
		s.sm.runTime.Observe(sec)
		s.shed.observe(pm.shape.PEs, sec)
		s.noteMachineOutcome(pm, err)
		s.maybeRetry(live[0], rep, err)
		return
	}
	s.noteMachineOutcome(pm, s.runBatch(pm, live))
}

// noteMachineOutcome takes pm out of service when it can no longer serve: a
// machine that is not Healthy after a dispatch (a condemned distributed
// world fails every later Compute in microseconds) always leaves, whatever
// the threshold; a healthy one leaves after Config.QuarantineAfter
// consecutive contained faults. Deadline and cancel outcomes say nothing
// about machine health and leave the count alone.
func (s *Server) noteMachineOutcome(pm *poolMachine, err error) {
	switch {
	case !pm.m.Healthy():
		s.quarantine(pm)
	case err == nil:
		pm.consecFaults.Store(0)
	case outcomes[outcomeOf(err)].fault:
		if n := pm.consecFaults.Add(1); s.cfg.QuarantineAfter > 0 && n >= int64(s.cfg.QuarantineAfter) {
			s.quarantine(pm)
		}
	}
}

// quarantine removes pm from service: the live census shrinks (admission
// and shedding see it immediately), queued jobs that no surviving machine
// can serve fail with ErrShapeQuarantined, and pm's worker exits after the
// current dispatch.
func (s *Server) quarantine(pm *poolMachine) {
	if !pm.quarantined.CompareAndSwap(false, true) {
		return
	}
	for _, j := range s.sched.failUnservable() {
		s.finishJob(j, nil, ErrShapeQuarantined)
	}
}

// source maps a validated Request to its kamsta.Source.
func (s *Server) source(req Request) kamsta.Source {
	switch {
	case req.Source != nil:
		return req.Source
	case req.Spec != nil:
		return kamsta.FromSpec(*req.Spec)
	case req.Edges != nil:
		return kamsta.FromEdges(req.Edges)
	default:
		return kamsta.FromFileFormat(req.File, req.FileFormat)
	}
}

// runOptions assembles the RunOptions for one request, appending the
// server-wide stall timeout and trace sink.
func (s *Server) runOptions(req Request) []kamsta.RunOption {
	opts := make([]kamsta.RunOption, 0, 4+len(req.Options))
	opts = append(opts, kamsta.WithAlgorithm(req.Algorithm), kamsta.WithSeed(req.Seed))
	if s.cfg.StallTimeout > 0 {
		opts = append(opts, kamsta.WithStallTimeout(s.cfg.StallTimeout))
	}
	if s.cfg.Trace != nil {
		opts = append(opts, kamsta.WithTrace(s.cfg.Trace))
	}
	return append(opts, req.Options...)
}

// finishJob delivers a result exactly once and accounts the outcome. The
// counters move before done closes, so a caller that Waits and then reads
// Stats never sees a job that is done but not counted.
func (s *Server) finishJob(j *Job, rep *kamsta.Report, err error) {
	j.once.Do(func() {
		j.rep, j.err = rep, err
		j.finished.Store(time.Now().UnixNano())
		if j.ten != nil {
			j.ten.completed.Add(1)
			row := outcomeOf(err)
			s.sm.inc(&j.ten.series.completed[row], &famCompleted, j.tenant, outcomes[row].code)
		}
		close(j.done)
		j.cancel()
		if j.unwatch != nil {
			j.unwatch()
		}
	})
}

// Job returns an admitted job by id (the HTTP poll path).
func (s *Server) Job(id uint64) (*Job, bool) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Forget drops a job from the result registry (DELETE over HTTP). The job
// itself still runs to completion unless cancelled.
func (s *Server) Forget(id uint64) {
	s.jobsMu.Lock()
	delete(s.jobs, id)
	s.jobsMu.Unlock()
}

// remember registers a job for polling and occasionally sweeps results
// older than ResultTTL.
func (s *Server) remember(j *Job) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	s.jobs[j.id] = j
	s.submits++
	if s.submits%256 != 0 {
		return
	}
	horizon := time.Now().Add(-s.cfg.ResultTTL).UnixNano()
	for id, old := range s.jobs {
		if fin := old.finished.Load(); fin != 0 && fin < horizon {
			delete(s.jobs, id)
		}
	}
}

// Drain stops admission and waits for queued and running jobs to finish.
// If ctx expires first, remaining jobs are cancelled (they unwind at their
// next collective boundary) and Drain returns ctx's error after the
// machines shut down. Always closes the server.
func (s *Server) Drain(ctx context.Context) error {
	s.sched.drain()
	s.drainRetries()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.baseCancel()
		s.failOrphans()
		<-done
	}
	s.teardown()
	return err
}

// Close aborts — a Drain that has already run out of time: stops admission,
// cancels every job context, fails the queue, and releases the machines.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Drain(ctx)
	return nil
}

// failOrphans closes the scheduler and fails every still-queued job with
// its context error (the base context is already cancelled on this path).
func (s *Server) failOrphans() {
	for _, j := range s.sched.close() {
		err := j.ctx.Err()
		if err == nil {
			err = context.Canceled
		}
		s.finishJob(j, nil, err)
	}
}

func (s *Server) teardown() {
	s.teardownOnce.Do(func() {
		s.failOrphans() // no-op on the forced paths; flips state on graceful drain
		s.baseCancel()
		for _, pm := range s.machines {
			pm.m.Close()
		}
	})
}

// TenantStat is one row of Stats.Tenants.
type TenantStat struct {
	Name      string `json:"name"`
	Weight    int    `json:"weight"`
	Queued    int    `json:"queued"`
	Submitted int64  `json:"submitted"`
	Completed int64  `json:"completed"`
	Rejected  int64  `json:"rejected"`
	Retried   int64  `json:"retried,omitempty"`
}

// MachineStat is one row of Stats.Machines.
type MachineStat struct {
	PEs         int   `json:"pes"`
	Threads     int   `json:"threads"`
	Busy        bool  `json:"busy"`
	Rebuilds    int64 `json:"rebuilds"`
	Quarantined bool  `json:"quarantined,omitempty"`
}

// Stats is a point-in-time server snapshot (GET /v1/stats).
type Stats struct {
	State       string        `json:"state"`
	Queued      int           `json:"queued"`
	Running     int           `json:"running"`
	Brownout    bool          `json:"brownout,omitempty"`
	Quarantined int           `json:"quarantined,omitempty"`
	Machines    []MachineStat `json:"machines"`
	Tenants     []TenantStat  `json:"tenants"`
}

// Stats snapshots queue depth, running jobs, machine health and per-tenant
// counters.
func (s *Server) Stats() Stats {
	st := Stats{
		State:       schedStates[s.sched.lifecycle()],
		Queued:      s.sched.depth(),
		Running:     int(s.running.Load()),
		Brownout:    s.brownout(),
		Quarantined: len(s.machines) - s.live(0),
		Tenants:     s.sched.snapshot(),
	}
	for _, pm := range s.machines {
		st.Machines = append(st.Machines, MachineStat{
			PEs:         pm.shape.PEs,
			Threads:     pm.shape.Threads,
			Busy:        pm.busy.Load(),
			Rebuilds:    pm.m.Rebuilds(),
			Quarantined: pm.quarantined.Load(),
		})
	}
	return st
}
