package serve

import (
	"slices"
	"sync"
	"sync/atomic"
)

// scheduler lifecycle states, and their names in Stats.State.
const (
	schedRunning int32 = iota
	schedDraining
	schedClosed
)

var schedStates = [...]string{"running", "draining", "closed"}

// strideScale is the fixed-point scale of the stride scheduler: a tenant
// with weight w advances its pass by strideScale/w per dispatched job, so
// over time tenants receive machine slots proportional to their weights.
const strideScale = 1 << 20

// tenant is one admission/fairness domain: a FIFO queue of its jobs plus
// its stride-scheduling state. Queue fields are guarded by the scheduler
// mutex; the outcome counters are atomics because jobs finish on worker
// goroutines outside the lock.
type tenant struct {
	name   string
	weight int
	stride uint64
	pass   uint64
	q      []*Job

	submitted atomic.Int64
	completed atomic.Int64
	rejected  atomic.Int64
	retried   atomic.Int64
	series    tenantSeries // the same events as exported serve_* counters
	budget    tokenBucket  // server-side retry budget (Config.Retry)
}

// scheduler is the server's bounded, weighted-fair job queue. Submission
// performs admission control (tenant known, global and per-tenant bounds);
// workers dequeue via next, which picks the compatible job of the tenant
// with the smallest stride pass — weighted fairness without starvation —
// and greedily attaches batch-compatible small jobs.
type scheduler struct {
	mu   sync.Mutex
	cond *sync.Cond

	tenants map[string]*tenant
	order   []*tenant // registration order: deterministic scans and tie-breaks

	queued        int
	bound         int
	tenantBound   int
	defaultWeight int // weight for auto-registered tenants; 0 rejects unknown
	state         int32
	global        uint64 // virtual time: pass of the last dispatched tenant
	// servable reports whether a live machine can still run a job.
	// Enqueueing and failUnservable's sweep both consult it under mu, so a
	// job racing the quarantine of its last machine is either refused or
	// swept, never stranded in a queue no worker serves.
	servable func(*Job) bool
}

func newScheduler(bound, tenantBound, defaultWeight int, servable func(*Job) bool) *scheduler {
	s := &scheduler{
		tenants:       make(map[string]*tenant),
		bound:         bound,
		tenantBound:   tenantBound,
		defaultWeight: defaultWeight,
		servable:      servable,
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// register adds a configured tenant (before the server starts serving).
func (s *scheduler) register(name string, weight int) *tenant {
	if weight < 1 {
		weight = 1
	}
	t := &tenant{name: name, weight: weight, stride: strideScale / uint64(weight)}
	s.tenants[name] = t
	s.order = append(s.order, t)
	return t
}

// submit admits one job or reports why not. On admission the job is queued
// FIFO within its tenant and a waiting worker is woken.
func (s *scheduler) submit(j *Job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != schedRunning {
		return ErrDraining
	}
	if !s.servable(j) {
		if t := s.tenants[j.tenant]; t != nil {
			t.rejected.Add(1)
		}
		return ErrShapeQuarantined
	}
	t := s.tenants[j.tenant]
	if t == nil {
		if s.defaultWeight <= 0 {
			return ErrUnknownTenant
		}
		t = s.register(j.tenant, s.defaultWeight)
	}
	if s.queued >= s.bound {
		t.rejected.Add(1)
		return ErrQueueFull
	}
	if len(t.q) >= s.tenantBound {
		t.rejected.Add(1)
		return ErrTenantQueueFull
	}
	t.submitted.Add(1)
	if len(t.q) == 0 && t.pass < s.global {
		// A tenant that went idle re-joins at the current virtual time:
		// it neither banks credit while idle nor starves the others.
		t.pass = s.global
	}
	j.ten = t
	t.q = append(t.q, j)
	s.queued++
	// Broadcast, not Signal: idle workers of every shape wait on this one
	// condition, and waking only a worker whose shape cannot run a pinned
	// job would leave it queued beside an idle machine that can.
	s.cond.Broadcast()
	return nil
}

// lookup returns the tenant's record, nil while it is not registered.
func (s *scheduler) lookup(name string) *tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tenants[name]
}

// resubmit re-queues an already-admitted job after a retry backoff. It
// bypasses admission control — the job was admitted once and its tenant's
// counters already reflect it — but still refuses once the scheduler has
// stopped running or no live machine can run the job, so retries cannot
// strand jobs past a drain or a quarantine.
func (s *scheduler) resubmit(j *Job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != schedRunning {
		return ErrDraining
	}
	if !s.servable(j) {
		return ErrShapeQuarantined
	}
	j.ten.q = append(j.ten.q, j)
	s.queued++
	s.cond.Broadcast()
	return nil
}

// remove withdraws a still-queued job (the deadline fast-fail path: its
// context expired while it waited). Reports whether the job was found —
// false means a worker already took it.
func (s *scheduler) remove(j *Job) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := j.ten
	if t == nil {
		return false
	}
	i := slices.Index(t.q, j)
	if i < 0 {
		return false
	}
	t.q = slices.Delete(t.q, i, i+1)
	s.queued--
	return true
}

// failUnservable removes and returns every queued job servable rejects —
// called when quarantine shrinks the live pool, so jobs whose shape has no
// live machine left fail immediately instead of waiting forever.
func (s *scheduler) failUnservable() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	var failed []*Job
	for _, t := range s.order {
		kept := t.q[:0]
		for _, j := range t.q {
			if s.servable(j) {
				kept = append(kept, j)
			} else {
				failed = append(failed, j)
			}
		}
		for i := len(kept); i < len(t.q); i++ {
			t.q[i] = nil
		}
		t.q = kept
	}
	s.queued -= len(failed)
	return failed
}

// compatible reports whether a job may run on a machine with pes PEs.
func compatible(j *Job, pes int) bool {
	return j.req.PEs == 0 || j.req.PEs == pes
}

// pick returns the queued tenant with the smallest pass that has a job
// compatible with pes that also fits (nil = any), and the index of that job
// in its queue. Caller holds the lock.
func (s *scheduler) pick(pes int, fits func(*Job) bool) (*tenant, int) {
	var best *tenant
	bestIdx := -1
	for _, t := range s.order {
		if len(t.q) == 0 || (best != nil && t.pass >= best.pass) {
			continue
		}
		for i, j := range t.q {
			if compatible(j, pes) && (fits == nil || fits(j)) {
				best, bestIdx = t, i
				break
			}
		}
	}
	return best, bestIdx
}

// take removes queue entry i and charges the tenant one stride. Caller
// holds the lock.
func (s *scheduler) take(t *tenant, i int) *Job {
	j := t.q[i]
	t.q = slices.Delete(t.q, i, i+1)
	s.global = t.pass
	t.pass += t.stride
	s.queued--
	return j
}

// next blocks until work is available for a machine with pes PEs and
// returns it: one job, or a batch of small batch-compatible jobs led by a
// fair pick. It returns nil when the worker should exit — the scheduler is
// closed, or draining with no compatible work left.
func (s *scheduler) next(pes int, bc BatchConfig) []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.state == schedClosed {
			return nil
		}
		if t, i := s.pick(pes, nil); t != nil {
			jobs := []*Job{s.take(t, i)}
			lead := jobs[0]
			if key, ok := batchKeyOf(lead, bc); ok {
				edgeRoom := bc.MaxEdges - len(lead.req.Edges)
				vertRoom := batchMaxLabel - lead.maxV
				batchMate := func(j *Job) bool {
					k, ok := batchKeyOf(j, bc)
					return ok && k == key && len(j.req.Edges) <= edgeRoom && j.maxV <= vertRoom
				}
				for len(jobs) < bc.MaxJobs {
					t2, i2 := s.pick(pes, batchMate)
					if t2 == nil {
						break
					}
					j2 := s.take(t2, i2)
					edgeRoom -= len(j2.req.Edges)
					vertRoom -= j2.maxV
					jobs = append(jobs, j2)
				}
			}
			return jobs
		}
		if s.state != schedRunning {
			// Draining and nothing this worker can serve: any remaining
			// queued jobs belong to other shapes, whose workers are still
			// live (admission guarantees every job matches a pool shape).
			return nil
		}
		s.cond.Wait()
	}
}

// drain stops admission; queued jobs keep being served.
func (s *scheduler) drain() {
	s.mu.Lock()
	if s.state == schedRunning {
		s.state = schedDraining
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// close stops the scheduler and returns every still-queued job exactly
// once, for the caller to fail; workers wake and exit.
func (s *scheduler) close() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.state = schedClosed
	var orphans []*Job
	for _, t := range s.order {
		orphans = append(orphans, t.q...)
		t.q = nil
	}
	s.queued = 0
	s.cond.Broadcast()
	return orphans
}

// lifecycle reports the scheduler's state.
func (s *scheduler) lifecycle() int32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// depth reports the total queued jobs.
func (s *scheduler) depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued
}

// snapshot returns per-tenant stats rows in registration order.
func (s *scheduler) snapshot() []TenantStat {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]TenantStat, 0, len(s.order))
	for _, t := range s.order {
		out = append(out, TenantStat{
			Name:      t.name,
			Weight:    t.weight,
			Queued:    len(t.q),
			Submitted: t.submitted.Load(),
			Completed: t.completed.Load(),
			Rejected:  t.rejected.Load(),
			Retried:   t.retried.Load(),
		})
	}
	return out
}
