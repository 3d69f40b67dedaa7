package comm

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"kamsta/internal/faultinject"
	"kamsta/internal/obs"
	"kamsta/internal/transport"
)

// This file is the world's job engine: how an SPMD program is executed on
// the PEs, how a persistent world keeps its PE goroutines parked between
// jobs (Start/Close), how a job's context cancels — and a fault aborts —
// the whole world cooperatively at collective boundaries, and how rank 0
// streams progress events to an Observer.
//
// # Cancellation and containment protocol
//
// Nothing can interrupt a PE mid-computation — PEs are plain goroutines
// running algorithm code — but every PE passes through the collective
// barrier many times per job, and that barrier already has a moment when
// one PE acts on behalf of a fully blocked world: the pre-release combine
// (see preRelease). Both cancellation and fault containment ride on it:
//
//  1. An asynchronous event raises a request flag on the job: the context
//     watcher sets jb.cancelReq when ctx expires; a PE whose panic was
//     recovered (or the stall watchdog) records a fault and sets
//     jb.abortReq.
//  2. The pre-release combiner of the next superstep reads the flags ONCE
//     and publishes the verdict in the superstep's combineSlot, while all
//     PEs are still blocked in the barrier. Reading once is what makes the
//     decision consistent: had each PE polled the flags itself, two PEs of
//     the same superstep could disagree and the barrier would deadlock.
//  3. After release, every PE of the superstep observes the same verdict
//     and unwinds its job with a sentinel panic (jobCancelled or
//     jobAborted), recovered at the top of the PE's job runner. All PEs
//     exit together at the same collective, no goroutine leaks, and RunJob
//     returns ctx.Err() or the recorded *JobError.
//
// A faulting PE has one extra duty: it stopped participating mid-superstep,
// so after recovery it rejoins the barrier once (drainAbort) to let the
// verdict release the world. Two pieces make that drain always terminate:
// SPMD lockstep (every other PE is at, or unconditionally heading to, the
// faulter's current epoch barrier) and the close-out superstep every PE
// runs after its job function returns (closeOut) — which guarantees a next
// barrier even when the fault strikes after the job's last algorithm
// collective. Because every PE now ends its job at the close-out
// collective, a cancellation raised after the last ALGORITHM collective is
// still observed there: a job whose compute finished entirely can return
// ctx.Err() rather than success, which is within the contract (cancelled
// jobs report ctx.Err(); whether the final verdict beat the cancel is
// timing).
//
// Faults the cooperative protocol cannot resolve — a PE goroutine lost to
// runtime.Goexit, or a stall where a stuck PE never reaches the barrier —
// fall back to poisoning the world (markBroken): the barrier force-releases
// every waiter, the PEs unwind, and the world reports Broken. A broken
// world runs no further jobs; the public Machine rebuilds it transparently.

// EventKind discriminates observer events.
type EventKind uint8

const (
	// EventPhaseBegin and EventPhaseEnd bracket a named algorithm phase
	// (the paper's Fig. 6 breakdown) on rank 0.
	EventPhaseBegin EventKind = iota + 1
	EventPhaseEnd
	// EventRound fires at the top of each distributed Borůvka round with
	// the global vertex count entering the round.
	EventRound
)

// String names the kind for logs.
func (k EventKind) String() string {
	switch k {
	case EventPhaseBegin:
		return "phaseBegin"
	case EventPhaseEnd:
		return "phaseEnd"
	case EventRound:
		return "round"
	}
	return "(unknown)"
}

// Event is one progress notification from a running job.
type Event struct {
	Kind EventKind
	// Phase is the phase name for phase events.
	Phase string
	// Round is the 1-based distributed round number for round events;
	// Vertices the global vertex count entering it.
	Round    int
	Vertices int
	// Clock is rank 0's modeled time when the event fired.
	Clock float64
}

// Observer receives progress events from rank 0 of a running job. It is
// invoked synchronously on the PE-0 goroutine: implementations must be fast,
// must not block, and must not call back into the world.
type Observer func(Event)

// note is the single structured-progress tap feeding both observation
// channels: every phase/round record is appended to this rank's span ring
// (when the job is traced) and, on rank 0, delivered to the Observer — the
// Observer is a view over the same stream the tracer records, not a second
// instrumentation path. The ended gate keeps a zombie PE of an ungracefully
// abandoned job (stall-grace return) from invoking a caller's observer
// after RunJobCfg has returned.
func (c *Comm) note(kind EventKind, phase string, round, vertices int) {
	if c.ring == nil && c.obs == nil {
		return
	}
	if c.jb.ended.Load() {
		return
	}
	if c.ring != nil {
		var sk obs.SpanKind
		switch kind {
		case EventPhaseBegin:
			sk = obs.SpanPhaseBegin
		case EventPhaseEnd:
			sk = obs.SpanPhaseEnd
		case EventRound:
			sk = obs.SpanRound
		}
		r := round
		if r == 0 {
			r = c.round
		}
		c.ring.Append(obs.Span{
			Kind:     sk,
			Rank:     int32(c.rank),
			Round:    int32(r),
			Vertices: int64(vertices),
			Name:     phase,
			Start:    time.Since(c.traceEpoch).Nanoseconds(),
			Clock:    c.clock,
		})
	}
	if c.obs != nil {
		c.obs(Event{Kind: kind, Phase: phase, Round: round, Vertices: vertices, Clock: c.clock})
	}
}

// EmitRound reports the start of distributed round `round` (1-based) with
// the global vertex count entering it. Algorithms call it once per round on
// every rank; it charges nothing, feeds fault diagnostics (JobError.Round),
// and additionally notifies the tracer and, on rank 0, the observer.
func (c *Comm) EmitRound(round, vertices int) {
	c.round = round
	c.note(EventRound, "", round, vertices)
}

// jobCancelled unwinds a PE whose job's context expired; recovered in runPE.
type jobCancelled struct{}

// jobAborted unwinds a PE after a fault elsewhere in the world (abort
// verdict or poisoned barrier); recovered in runPE.
type jobAborted struct{}

// worldJob is one SPMD program in flight: the function, the completion
// group, and ALL per-job mutable state — observer, injector, request flags,
// outcome counters, fault records. Keeping this state off the World is what
// makes an ungracefully abandoned job harmless: a zombie PE still holds its
// own job's worldJob and can never touch the next job's.
type worldJob struct {
	f   func(*Comm)
	wg  sync.WaitGroup
	obs Observer
	inj *faultinject.Injector

	// tr is the job's span trace sink (nil untraced); traceEpoch the shared
	// zero point for span timestamps. ended flips when RunJobCfg returns:
	// zombie PEs of an abandoned job check it before touching the observer.
	tr         *obs.Trace
	traceEpoch time.Time
	ended      atomic.Bool

	// cancelReq and abortReq are the asynchronous requests the next
	// pre-release combiner turns into the superstep verdict.
	cancelReq atomic.Bool
	abortReq  atomic.Bool

	// nCancelled and nAborted count PEs by unwind path.
	nCancelled atomic.Int32
	nAborted   atomic.Int32

	// stalled is closed by the watchdog when it fires (nil without one);
	// stallTimeout is the watchdog's timeout.
	stalled      chan struct{}
	stallTimeout time.Duration

	faultMu sync.Mutex
	faults  []*JobError
	// faultsSent is the prefix of faults already shipped to the remote
	// verdict-deciding process (see commHost.Flags); local-only worlds never
	// advance it.
	faultsSent int
}

// recordFault appends one structured fault. Several PEs may fault while the
// world unwinds (e.g. an injected panic on two ranks in one superstep); all
// are kept, the first becomes the job's error.
func (jb *worldJob) recordFault(je *JobError) {
	jb.faultMu.Lock()
	jb.faults = append(jb.faults, je)
	jb.faultMu.Unlock()
}

// primaryError returns the job's first recorded fault (annotated with the
// total count), or nil.
func (jb *worldJob) primaryError() error {
	jb.faultMu.Lock()
	defer jb.faultMu.Unlock()
	if len(jb.faults) == 0 {
		return nil
	}
	je := jb.faults[0]
	je.Faults = len(jb.faults)
	return je
}

// snapshotFaults drains the faults not yet shipped to the remote
// verdict-deciding process, in wire form. Allocation-free when nothing new
// was recorded — the per-superstep case.
func (jb *worldJob) snapshotFaults() []transport.RemoteFault {
	jb.faultMu.Lock()
	defer jb.faultMu.Unlock()
	if jb.faultsSent >= len(jb.faults) {
		return nil
	}
	out := make([]transport.RemoteFault, 0, len(jb.faults)-jb.faultsSent)
	for _, je := range jb.faults[jb.faultsSent:] {
		out = append(out, je.wire())
	}
	jb.faultsSent = len(jb.faults)
	return out
}

// JobConfig carries the optional per-job settings of RunJobCfg.
type JobConfig struct {
	// Observer receives rank 0's phase/round events.
	Observer Observer
	// StallTimeout arms the stall watchdog: if no collective completes for
	// this long, the job aborts with a FaultStall and the world is poisoned.
	// Zero disables the watchdog.
	StallTimeout time.Duration
	// Inject arms deterministic fault injection for this job (testing
	// only). Nil injects nothing.
	Inject *faultinject.Plan
	// Trace collects structured spans (phases, rounds, collectives) from
	// every PE of the job. A single Trace may span many jobs; all span
	// timestamps share its epoch. Nil disables tracing.
	Trace *obs.Trace
}

// Run executes f as an SPMD program: every PE runs f with its own Comm
// handle, and Run returns when all have finished. It may be called
// repeatedly; statistics accumulate across calls. On a persistent world
// (Start) the parked PE goroutines execute the job; otherwise one goroutine
// per PE is spawned for this call only. A job failure (contained PE panic)
// is re-raised here: Run keeps the crash-loudly contract for callers that
// opted out of error handling.
func (w *World) Run(f func(c *Comm)) {
	if err := w.RunJob(context.Background(), nil, f); err != nil {
		panic(err)
	}
}

// RunJob is Run with a cancellation context and a progress observer (both
// optional); see RunJobCfg.
func (w *World) RunJob(ctx context.Context, obs Observer, f func(*Comm)) error {
	return w.RunJobCfg(ctx, JobConfig{Observer: obs}, f)
}

// RunJobCfg executes f as an SPMD program under the full per-job
// configuration. If ctx expires while the job is running, all PEs abandon
// the job together at the next collective boundary and RunJobCfg returns
// ctx.Err(). If a PE panics, the panic is contained: all PEs unwind the
// same superstep together and RunJobCfg returns a *JobError describing the
// fault. If the watchdog (JobConfig.StallTimeout) detects a stalled
// collective, the world is poisoned and RunJobCfg returns a *JobError with
// per-rank arrival diagnostics — after which the world reports Broken and
// must be rebuilt. A World runs one job at a time; serializing concurrent
// callers is the caller's concern (see the public Machine API).
func (w *World) RunJobCfg(ctx context.Context, cfg JobConfig, f func(*Comm)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if w.Broken() {
		return ErrBroken
	}
	jb := &worldJob{f: f, obs: cfg.Observer, inj: cfg.Inject.Injector(w.p)}
	if cfg.Trace != nil {
		jb.tr = cfg.Trace
		jb.traceEpoch = cfg.Trace.StartJob(w.p)
	}
	// Arm the watcher only for cancellable contexts; Background costs
	// nothing.
	var stop, watcherDone chan struct{}
	if done := ctx.Done(); done != nil {
		stop = make(chan struct{})
		watcherDone = make(chan struct{})
		go func() {
			defer close(watcherDone)
			select {
			case <-done:
				jb.cancelReq.Store(true)
			case <-stop:
			}
		}()
	}
	var watchStop, watchDone chan struct{}
	if cfg.StallTimeout > 0 {
		jb.stalled, jb.stallTimeout = make(chan struct{}), cfg.StallTimeout
		watchStop = make(chan struct{})
		watchDone = make(chan struct{})
		// base is each rank's arrival count at job start: arrivals are
		// lifetime counters, so the stall diagnosis subtracts it to report
		// job-relative supersteps. It must be read before dispatch: once the
		// PEs run, a rank may already have passed its first barrier, and a
		// baseline that includes it would name that rank missing at a stall.
		base := make([]int64, w.p)
		for r := range base {
			base[r] = w.arrived[r].v.Load()
		}
		go w.watchdog(jb, base, cfg.StallTimeout, watchStop, watchDone)
	}
	w.dispatch(jb)
	graceful := true
	if cfg.StallTimeout > 0 {
		// With a watchdog armed the job may contain a PE that never reaches
		// a barrier again; waiting must not inherit that hang. Poisoning
		// releases every blocked PE immediately, so after a stall the
		// stragglers unwind within the grace window unless one is truly
		// stuck in compute — then RunJobCfg returns anyway, leaving the
		// zombie PE attached to its own worldJob (never this world's next
		// job) and the world marked broken for rebuild.
		peDone := make(chan struct{})
		go func() { jb.wg.Wait(); close(peDone) }()
		select {
		case <-peDone:
		case <-jb.stalled:
			select {
			case <-peDone:
			case <-time.After(cfg.StallTimeout):
				graceful = false
			}
		}
	} else {
		jb.wg.Wait()
	}
	if watchStop != nil {
		close(watchStop)
		<-watchDone
	}
	if stop != nil {
		// Join the watcher before returning: a store racing past the job's
		// end would belong to a dead worldJob and is harmless, but joining
		// keeps the goroutine accounting exact for leak checks.
		close(stop)
		<-watcherDone
	}
	if graceful {
		// Drop deposit references so the last collective's payloads don't
		// stay reachable through the transport between (or after) jobs, and
		// clear the published verdicts. Skipped after an ungraceful stall
		// return: a zombie PE may still write its board slot, and a broken
		// world is never reused anyway.
		w.tr.Drop()
	}
	// From here on the job is over from the caller's perspective: no PE —
	// including a zombie left behind by an ungraceful stall return — may
	// invoke the caller's observer anymore.
	jb.ended.Store(true)
	if err := jb.primaryError(); err != nil {
		return err
	}
	if jb.nCancelled.Load() > 0 {
		return ctx.Err()
	}
	return nil
}

// dispatch hands the job to every LOCAL PE — parked goroutines on a
// persistent world, freshly spawned ones otherwise. Remote ranks run in
// their own processes, driven by their own worlds over the shared
// transport.
func (w *World) dispatch(jb *worldJob) {
	jb.wg.Add(w.hi - w.lo)
	if w.pes != nil {
		for r := w.lo; r < w.hi; r++ {
			w.pes[r] <- jb
		}
		return
	}
	for r := w.lo; r < w.hi; r++ {
		go w.runJobOnPE(r, jb)
	}
}

// runJobOnPE runs one PE's share of a job and accounts its outcome. Its
// deferred watchdog is the last line of containment: if the goroutine is
// dying without an outcome — runtime.Goexit raised by algorithm code, or a
// panic that escaped runPE's recovery — the world has permanently lost a
// party and can never complete another barrier, so it is poisoned to
// unwind everyone else, and the job still gets its wg.Done and a
// FaultLostPE record.
func (w *World) runJobOnPE(rank int, jb *worldJob) {
	finished := false
	defer func() {
		if r := recover(); r != nil || !finished {
			jb.recordFault(&JobError{Kind: FaultLostPE, Rank: rank, PanicValue: r})
			jb.abortReq.Store(true)
			w.markBroken()
			jb.wg.Done()
		}
	}()
	switch w.runPE(w.newComm(rank, jb), jb) {
	case peCancelled:
		jb.nCancelled.Add(1)
	case peAborted:
		jb.nAborted.Add(1)
	}
	finished = true
	jb.wg.Done()
}

// peOutcome is how one PE's share of a job ended.
type peOutcome uint8

const (
	// peDone: the job function and the close-out superstep completed.
	peDone peOutcome = iota
	// peCancelled: unwound by the cancellation verdict (ctx expired).
	peCancelled
	// peAborted: unwound by the abort verdict, a poisoned barrier, or this
	// PE's own contained panic.
	peAborted
)

// runPE runs one PE's share of a job. Sentinel unwinds (cancel/abort
// verdicts) just report their outcome; any OTHER panic is a real fault:
// it is recorded with its location and stack, the abort request is raised,
// and this PE rejoins the barrier once (drainAbort) so the verdict can
// release the world. Metrics of cancelled or aborted PEs are discarded — a
// partial clock is not a makespan.
func (w *World) runPE(c *Comm, jb *worldJob) (outcome peOutcome) {
	defer func() {
		switch r := recover().(type) {
		case nil:
		case jobCancelled:
			outcome = peCancelled
		case jobAborted:
			outcome = peAborted
		default:
			c.recordPanicFault(r)
			jb.abortReq.Store(true)
			// A false return means the barrier was poisoned while draining:
			// the world is already broken and released, nothing further to
			// coordinate.
			c.drainAbort()
			outcome = peAborted
		}
	}()
	jb.f(c)
	c.closeOut()
	c.flush()
	if c.ring != nil {
		// Drain this PE's spans into the job's trace. Graceful completions
		// only, mirroring the metrics contract: a cancelled or aborted PE's
		// partial timeline is discarded with its partial clock.
		jb.tr.Collect(c.ring)
	}
	return peDone
}

// Start makes the world persistent: one goroutine per PE is spawned now and
// parks between jobs, so repeated Run/RunJob calls reuse the same
// goroutines instead of spawning p of them per job. Idempotent. Not safe
// for concurrent use with Run/Close.
func (w *World) Start() {
	if w.pes != nil {
		return
	}
	w.pes = make([]chan *worldJob, w.p)
	for r := w.lo; r < w.hi; r++ {
		// Capacity 1 makes the dispatch loop non-blocking: a PE always
		// consumes job k before signalling job k's completion, so when job
		// k+1 is submitted (necessarily after k completed) every buffer is
		// empty and the p sends cost p channel pushes, not p rendezvous.
		// Remote ranks keep a nil channel: their goroutines live in their
		// own processes.
		ch := make(chan *worldJob, 1)
		w.pes[r] = ch
		go w.peLoop(r, ch)
	}
}

// peLoop is one parked PE of a persistent world: it waits for the next job,
// runs its share, and parks again until Close.
func (w *World) peLoop(rank int, jobs <-chan *worldJob) {
	for jb := range jobs {
		w.runJobOnPE(rank, jb)
	}
}

// Close releases a persistent world's parked PE goroutines. Idempotent; a
// never-started world closes trivially. The world remains usable in
// spawn-per-run mode afterwards. Must not be called while a job is running
// (an abandoned zombie PE of a BROKEN world is fine: it holds only its own
// job's state, and its channel close is observed whenever it finally
// parks).
func (w *World) Close() {
	if w.pes == nil {
		return
	}
	for _, ch := range w.pes {
		if ch != nil {
			close(ch)
		}
	}
	w.pes = nil
}
