package serve

import (
	"errors"
	"fmt"
	"math"
	"time"

	"kamsta/internal/obs"
)

// RetryAfterError wraps an overload rejection with a backoff hint — how
// long the server estimates the condition needs to clear. The HTTP layer
// renders it as a Retry-After header, serve.Client rebuilds it from the
// header, and loadgen's closed loops wait it out. errors.Is still matches
// the wrapped sentinel.
type RetryAfterError struct {
	Err        error
	RetryAfter time.Duration
}

func (e *RetryAfterError) Error() string {
	return fmt.Sprintf("%v (retry after %s)", e.Err, e.RetryAfter.Round(time.Millisecond))
}

func (e *RetryAfterError) Unwrap() error { return e.Err }

// retryAfterOf extracts the backoff hint from a rejection, if any.
func retryAfterOf(err error) (time.Duration, bool) {
	var ra *RetryAfterError
	if errors.As(err, &ra) {
		return ra.RetryAfter, true
	}
	return 0, false
}

// shedder is the admission-time overload estimator: rolling windows of
// recent per-dispatch service times (one per pool shape plus a pooled one).
// Given the machines currently in service (Server.live) it answers the one
// question admission control needs — "how long would a job submitted now
// wait in the queue?" — from observed behavior, not configuration.
type shedder struct {
	minSamples int64
	quantile   float64

	all     *obs.Rolling
	byShape map[int]*obs.Rolling // keyed by PEs
}

// shedWindow is the rolling window capacity. Big enough to smooth one
// noisy dispatch, small enough that a workload shift re-trains the
// estimate within a few dozen jobs.
const shedWindow = 256

func newShedder(cfg Config) *shedder {
	sh := &shedder{
		minSamples: int64(cfg.ShedMinSamples),
		quantile:   cfg.ShedQuantile,
		all:        obs.NewRolling(shedWindow),
		byShape:    make(map[int]*obs.Rolling),
	}
	for _, shape := range cfg.Pool {
		if sh.byShape[shape.PEs] == nil {
			sh.byShape[shape.PEs] = obs.NewRolling(shedWindow)
		}
	}
	return sh
}

// observe records one dispatch's machine-occupancy seconds (a batch counts
// once — that is what the next queued job waits behind).
func (sh *shedder) observe(pes int, sec float64) {
	sh.all.Observe(sec)
	if w := sh.byShape[pes]; w != nil {
		w.Observe(sec)
	}
}

// window picks the estimator for a shape pin (0 = the pooled window).
func (sh *shedder) window(pes int) *obs.Rolling {
	if pes != 0 {
		if w := sh.byShape[pes]; w != nil {
			return w
		}
	}
	return sh.all
}

// estimate returns the expected queue wait for a job pinned to pes given
// the current depth and the machines in service for it, and whether the
// estimator is warm enough to be trusted (below minSamples it abstains, so
// a cold server never sheds).
func (sh *shedder) estimate(pes, depth, machines int) (time.Duration, bool) {
	w := sh.window(pes)
	if w.Count() < sh.minSamples {
		return 0, false
	}
	if machines < 1 {
		return 0, false
	}
	q := w.Quantile(sh.quantile)
	if math.IsNaN(q) {
		return 0, false
	}
	sec := float64(depth) / float64(machines) * q
	return time.Duration(sec * float64(time.Second)), true
}

// shedCheck decides whether to shed a job with effective deadline d at
// current queue depth. A zero deadline never sheds.
func (sh *shedder) shedCheck(pes, depth, machines int, d time.Duration) error {
	if d <= 0 || sh.minSamples < 0 {
		return nil
	}
	est, warm := sh.estimate(pes, depth, machines)
	if !warm || est < d {
		return nil
	}
	// The hint is how much queue would have to drain before this deadline
	// could survive admission.
	return &RetryAfterError{Err: ErrDeadlineUnattainable, RetryAfter: est - d + time.Millisecond}
}

// drainHint estimates the time for n queued jobs to drain — the Retry-After
// hint on queue-full and brownout rejections. Cold estimator: a fixed
// conservative default.
func (sh *shedder) drainHint(pes, n, machines int) time.Duration {
	if n < 1 {
		n = 1
	}
	if est, warm := sh.estimate(pes, n, machines); warm {
		return max(est, time.Millisecond)
	}
	return 100 * time.Millisecond
}

// brownout reports whether the server is degraded: any machine out of
// service, or the queue past the brownout high-water mark. Degraded, the server
// sheds batch-eligible small jobs at admission (they have the best chance
// of succeeding later) and stops batching (batch growth multiplies the
// blast radius of a faulting world).
func (s *Server) brownout() bool {
	return s.live(0) < len(s.machines) || s.sched.depth() >= s.brownoutHi
}
