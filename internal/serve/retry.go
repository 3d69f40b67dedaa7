package serve

import (
	"math/rand"
	"sync"
	"time"

	"kamsta"
)

// RetryConfig bounds server-side transparent retries of jobs killed by a
// contained world fault (*kamsta.JobError — a panic, stall, or injected
// I/O error on one PE). The Machine already rebuilds its world after such
// faults, so a retry usually succeeds; the budget exists so that a
// persistent fault (or a fault storm under overload) cannot amplify load.
//
// Two limits compose: MaxAttempts bounds one job (attempts, not retries —
// 3 means the original dispatch plus up to two retries), and a per-tenant
// token bucket (BudgetRate tokens/second, burst BudgetBurst) bounds the
// tenant's aggregate retry rate. When either is exhausted the job fails
// with its original *JobError, exactly as it would without retries.
type RetryConfig struct {
	// MaxAttempts is the total dispatch attempts per job (≤1 disables
	// server-side retries — the default, so fault-injection tests observe
	// raw *JobErrors unless they opt in).
	MaxAttempts int
	// BackoffBase seeds the exponential backoff between attempts (default
	// 10ms); BackoffMax caps it (default 1s). Full jitter: each delay is
	// uniform in (0, min(BackoffMax, BackoffBase·2^attempt)].
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// BudgetRate refills a tenant's retry budget in tokens/second (default
	// 1); BudgetBurst caps the bucket (default 10). Each retry takes one
	// token.
	BudgetRate  float64
	BudgetBurst float64
}

func (rc RetryConfig) withDefaults() RetryConfig {
	if rc.BackoffBase <= 0 {
		rc.BackoffBase = 10 * time.Millisecond
	}
	if rc.BackoffMax <= 0 {
		rc.BackoffMax = time.Second
	}
	if rc.BudgetRate <= 0 {
		rc.BudgetRate = 1
	}
	if rc.BudgetBurst <= 0 {
		rc.BudgetBurst = 10
	}
	return rc
}

// backoff returns the full-jittered delay before attempt n's dispatch
// (n ≥ 1: the first retry).
func (rc RetryConfig) backoff(n int) time.Duration {
	d := rc.BackoffBase << min(n, 20)
	if d <= 0 || d > rc.BackoffMax {
		d = rc.BackoffMax
	}
	return 1 + time.Duration(rand.Int63n(int64(d)))
}

// tokenBucket is a refill-on-take token bucket: one tenant's retry budget,
// kept on its tenant record. The zero value is a full bucket.
type tokenBucket struct {
	mu     sync.Mutex
	tokens float64
	last   time.Time
}

// take consumes one token if available, refilling at rate up to burst first.
func (b *tokenBucket) take(rate, burst float64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := time.Now()
	if b.last.IsZero() {
		b.tokens = burst
	}
	b.tokens = min(burst, b.tokens+now.Sub(b.last).Seconds()*rate)
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// maybeRetry resolves a dispatch outcome: world faults re-dispatch after a
// jittered backoff while the job's attempts and its tenant's budget last;
// everything else (and every exhausted fault) finishes the job. Exactly-
// once accounting is preserved because a retried job is the same *Job —
// it finishes once, at its terminal outcome, and its tenant's submitted
// counter was bumped only at admission.
func (s *Server) maybeRetry(j *Job, rep *kamsta.Report, err error) {
	if s.cfg.Retry.MaxAttempts <= 1 || !outcomes[outcomeOf(err)].fault || j.ctx.Err() != nil {
		s.finishJob(j, rep, err)
		return
	}
	j.attempts++
	if j.attempts >= s.cfg.Retry.MaxAttempts || !j.ten.budget.take(s.cfg.Retry.BudgetRate, s.cfg.Retry.BudgetBurst) {
		s.finishJob(j, nil, err)
		return
	}
	delay := s.cfg.Retry.backoff(j.attempts)
	s.retryMu.Lock()
	if s.retryStopped {
		// Drain/Close already flushed the pending set; a new timer would
		// never be cancelled and its job could outlive the machines.
		s.retryMu.Unlock()
		s.finishJob(j, nil, err)
		return
	}
	j.started.Store(0) // back to "queued" while the backoff runs
	s.pending[j.id] = &pendingRetry{j: j, orig: err}
	s.pending[j.id].timer = time.AfterFunc(delay, func() { s.redispatch(j.id) })
	s.retryMu.Unlock()
	if j.ten != nil {
		j.ten.retried.Add(1)
		s.sm.inc(&j.ten.series.retried, &famRetried, j.tenant, "")
	}
}

// pendingRetry is one job waiting out its backoff.
type pendingRetry struct {
	j     *Job
	orig  error
	timer *time.Timer
}

// redispatch moves a backed-off job back into the scheduler. If the
// scheduler no longer admits (draining or closed), the job finishes with
// its original fault — a retry never outlives the server's lifecycle.
func (s *Server) redispatch(id uint64) {
	s.retryMu.Lock()
	pr := s.pending[id]
	delete(s.pending, id)
	s.retryMu.Unlock()
	if pr == nil {
		return // flushed by drainRetries
	}
	// The deadline burned out during the backoff, or quarantine took the
	// last machine that could serve it (resubmit refuses): report the
	// original fault rather than queue a job nothing will run.
	if pr.j.ctx.Err() != nil || s.sched.resubmit(pr.j) != nil {
		s.finishJob(pr.j, nil, pr.orig)
	}
}

// drainRetries stops accepting new retry timers and flushes the pending
// ones: each waiting job finishes now with its original fault. Called on
// Drain and Close so shutdown never races a timer into a dead scheduler.
func (s *Server) drainRetries() {
	s.retryMu.Lock()
	s.retryStopped = true
	flush := make([]*pendingRetry, 0, len(s.pending))
	for id, pr := range s.pending {
		pr.timer.Stop()
		flush = append(flush, pr)
		delete(s.pending, id)
	}
	s.retryMu.Unlock()
	for _, pr := range flush {
		s.finishJob(pr.j, nil, pr.orig)
	}
}
