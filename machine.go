package kamsta

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"kamsta/internal/comm"
	"kamsta/internal/graph"
	"kamsta/internal/transport/tcp"
)

// Transport backends a Machine can run on (MachineConfig.Transport).
const (
	// TransportSHM is the in-process shared-memory substrate: every PE is a
	// goroutine of this process. The default.
	TransportSHM = "shm"
	// TransportTCP spans the world across processes: this process leads
	// ranks [0, k) and each MachineConfig.Workers address hosts a contiguous
	// block of the rest (see cmd/mstworker). Modeled clocks and results are
	// bit-identical to TransportSHM; only wall time changes.
	TransportTCP = "tcp"
)

// MachineConfig describes a simulated machine: the settings that outlive
// any single computation. Everything per-job (algorithm, seed, tuning,
// observer) is a RunOption on Compute.
type MachineConfig struct {
	// PEs is the number of simulated processing elements (default 4).
	PEs int
	// Threads is the number of intra-PE threads, the paper's OpenMP
	// threads per MPI process (default 1).
	Threads int
	// Cost overrides the α-β machine model (zero value: defaults).
	Cost comm.CostModel
	// Metrics, when non-nil, registers this machine's job-level series and
	// its world's per-PE substrate series (see NewMetrics). The same
	// registry may back several machines; series are resolved get-or-create
	// so totals survive transparent world rebuilds. Nil disables metrics
	// entirely — the disabled path stays allocation-free at steady state.
	Metrics *Metrics
	// Transport selects the substrate backend: TransportSHM (default) or
	// TransportTCP.
	Transport string
	// Workers lists worker addresses ("host:port") for TransportTCP; the
	// PEs split into len(Workers)+1 contiguous blocks, the first staying in
	// this process. Must be empty for TransportSHM.
	Workers []string
}

func (mc MachineConfig) withDefaults() MachineConfig {
	if mc.PEs <= 0 {
		mc.PEs = 4
	}
	if mc.Threads <= 0 {
		mc.Threads = 1
	}
	if mc.Cost == (comm.CostModel{}) {
		mc.Cost = comm.DefaultCostModel()
	}
	if mc.Transport == "" {
		mc.Transport = TransportSHM
	}
	return mc
}

// maxPEs bounds the simulated machine width: each PE is a parked goroutine
// plus cache-line-padded per-rank state, so a width beyond any plausible
// simulation is a config bug (a mistyped shift), not a request.
const maxPEs = 1 << 16

// Validate checks a MachineConfig without applying defaults: zero values
// are fine (they mean "default"), negative or absurd ones are errors. It is
// what NewMachine enforces, exposed so services can reject a config before
// paying for a machine.
func (mc MachineConfig) Validate() error {
	if mc.PEs < 0 {
		return fmt.Errorf("kamsta: MachineConfig.PEs is negative (%d)", mc.PEs)
	}
	if mc.PEs > maxPEs {
		return fmt.Errorf("kamsta: MachineConfig.PEs %d exceeds the maximum %d", mc.PEs, maxPEs)
	}
	if mc.Threads < 0 {
		return fmt.Errorf("kamsta: MachineConfig.Threads is negative (%d)", mc.Threads)
	}
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"Alpha", mc.Cost.Alpha},
		{"Beta", mc.Cost.Beta},
		{"Compute", mc.Cost.Compute},
	} {
		if math.IsNaN(p.v) || math.IsInf(p.v, 0) || p.v < 0 {
			return fmt.Errorf("kamsta: MachineConfig.Cost.%s is not a finite non-negative number (%v)", p.name, p.v)
		}
	}
	switch mc.Transport {
	case "", TransportSHM:
		if len(mc.Workers) > 0 {
			return fmt.Errorf("kamsta: MachineConfig.Workers set without Transport %q", TransportTCP)
		}
	case TransportTCP:
		if len(mc.Workers) == 0 {
			return fmt.Errorf("kamsta: Transport %q needs at least one worker address", TransportTCP)
		}
		pes := mc.PEs
		if pes == 0 {
			pes = 4
		}
		if pes < len(mc.Workers)+1 {
			return fmt.Errorf("kamsta: %d PEs cannot split over this process plus %d workers", pes, len(mc.Workers))
		}
	default:
		return fmt.Errorf("kamsta: unknown transport %q", mc.Transport)
	}
	return nil
}

// ErrMachineClosed is returned by Compute on a closed Machine.
var ErrMachineClosed = errors.New("kamsta: machine is closed")

// ErrWorldFailed is returned by Compute when a distributed machine's
// job-control streams fail, and by every Compute after any failure of its
// transport: worker connections do not recover mid-world, so the machine is
// condemned instead of transparently rebuilt. Close it and build a new one.
var ErrWorldFailed = errors.New("kamsta: distributed world failed; the machine must be rebuilt")

// Machine is a persistent simulated machine: its PE goroutines are spawned
// once and stay parked between jobs, so a service computing many instances
// pays the world setup once instead of per call. A Machine is safe for
// concurrent use — Compute calls from multiple goroutines queue and run one
// at a time (the machine is a single resource, like its MPI counterpart).
//
//	m, err := kamsta.NewMachine(kamsta.MachineConfig{PEs: 16, Threads: 8})
//	if err != nil { ... }
//	defer m.Close()
//	rep, err := m.Compute(ctx, kamsta.FromSpec(spec), kamsta.WithAlgorithm(kamsta.AlgFilterBoruvka))
//
// A Machine survives job-scoped failures: a PE panic is contained and
// surfaced as a *JobError, a stalled collective (WithStallTimeout) is
// detected and aborted, and a world left unusable by a fault is rebuilt
// transparently before the next job — Healthy reports the current state.
type Machine struct {
	cfg   MachineConfig
	world atomic.Pointer[comm.World]

	// rebuilds counts transparent world rebuilds after faults.
	rebuilds atomic.Int64

	// jobs is the job queue: a 1-slot semaphore acquired for the duration
	// of each job, granting waiters in strict arrival (FIFO) order so
	// queue-wait distributions stay meaningful under load. Waiting in
	// Compute is abandoned when the caller's context expires or the
	// machine closes.
	jobs      fifoSem
	closed    chan struct{}
	closeOnce sync.Once

	// lt is the distributed leader transport (nil on TransportSHM). dead
	// marks a condemned distributed machine: remote worker state cannot be
	// transparently re-dialed, so instead of a rebuild, Compute fast-fails
	// with ErrWorldFailed.
	lt   *tcp.Leader
	dead atomic.Bool

	// mm holds the machine's resolved job-level metric instruments (nil
	// without MachineConfig.Metrics).
	mm *machineMetrics

	// report is the memory run puts each Report's forest in order with.
	report reportScratch
}

// NewMachine builds a machine and parks its PE goroutines, ready for jobs.
// Close it when done to release them. Invalid configuration (see
// MachineConfig.Validate) is an error, not a panic.
func NewMachine(cfg MachineConfig) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	m := &Machine{
		cfg:    cfg,
		closed: make(chan struct{}),
		mm:     newMachineMetrics(cfg.Metrics),
	}
	opts := []comm.Option{comm.WithThreads(cfg.Threads), comm.WithCost(cfg.Cost),
		comm.WithMetrics(cfg.Metrics)}
	if cfg.Transport == TransportTCP {
		// Split the PEs into len(Workers)+1 near-even contiguous blocks;
		// this process keeps the first (rounded up, so it is never smaller
		// than a worker's — rank 0 must stay local).
		nw := len(cfg.Workers)
		lt, err := tcp.NewLeader(tcp.LeaderConfig{
			P:          cfg.PEs,
			LocalRanks: (cfg.PEs + nw) / (nw + 1),
			Workers:    cfg.Workers,
			Threads:    cfg.Threads,
			Alpha:      cfg.Cost.Alpha,
			Beta:       cfg.Cost.Beta,
			Compute:    cfg.Cost.Compute,
			Reg:        cfg.Metrics,
		})
		if err != nil {
			return nil, err
		}
		m.lt = lt
		opts = append(opts, comm.WithTransport(lt))
	}
	w := comm.NewWorld(cfg.PEs, opts...)
	w.Start()
	m.world.Store(w)
	return m, nil
}

// PEs reports the machine width.
func (m *Machine) PEs() int { return m.cfg.PEs }

// Threads reports the intra-PE thread count.
func (m *Machine) Threads() int { return m.cfg.Threads }

// Healthy reports whether the machine is open and its world intact. Because
// a fault's recovery — clean-world verification or a transparent rebuild —
// completes before Compute returns the *JobError, Healthy is normally true
// even right after a failed job; false means the machine is closed or a
// rebuild is in flight on another goroutine.
func (m *Machine) Healthy() bool {
	select {
	case <-m.closed:
		return false
	default:
	}
	if m.dead.Load() {
		return false
	}
	return !m.world.Load().Broken()
}

// Rebuilds reports how many times the machine has transparently rebuilt its
// world after a fault (an observability counter: each rebuild re-pays the
// world setup a persistent machine exists to amortize).
func (m *Machine) Rebuilds() int64 { return m.rebuilds.Load() }

// Close waits for the in-flight job (if any) and releases the machine's PE
// goroutines. Jobs queued or submitted after Close return ErrMachineClosed.
// Close is idempotent and always returns nil (the error return keeps the
// io.Closer shape).
func (m *Machine) Close() error {
	m.closeOnce.Do(func() {
		close(m.closed)
		// Acquire the job slot: from here no new job can start (Compute
		// re-checks closed after acquiring), so the world is quiescent.
		// Close queues FIFO like any caller; waiters ahead of it abandon
		// when they observe the closed channel.
		_ = m.jobs.acquire(context.Background(), nil)
		m.world.Load().Close()
		if m.lt != nil {
			// Workers observe EOF on their idle job wait and tear their
			// worlds down.
			m.lt.Close()
		}
		m.jobs.release()
	})
	return nil
}

// Compute executes one MSF job on the machine: materialize src, run the
// selected algorithm, return the Report. Concurrent calls queue; waiting in
// the queue and the job itself are both abandoned with ctx.Err() when ctx
// expires (cancellation is observed cooperatively at collective boundaries,
// all PEs exit together, and the machine stays usable for the next job).
func (m *Machine) Compute(ctx context.Context, src Source, opts ...RunOption) (rep *Report, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	rs := runSettings{alg: AlgBoruvka}
	for _, o := range opts {
		if o != nil {
			o(&rs)
		}
	}
	if _, ok := msfAlgorithms[rs.alg]; !ok {
		return nil, fmt.Errorf("kamsta: unknown algorithm %q", rs.alg)
	}
	if src == nil {
		return nil, fmt.Errorf("kamsta: nil input source")
	}
	if err := src.validate(); err != nil {
		return nil, err
	}
	// The core seed follows the job seed unless set on its own.
	if rs.core.Seed == 0 {
		rs.core.Seed = rs.seed
	}

	if m.mm != nil {
		m.mm.started.Inc()
		m.mm.queued.Add(1)
	}
	queuedAt := time.Now()
	err = m.jobs.acquire(ctx, m.closed)
	if m.mm != nil {
		m.mm.queued.Add(-1)
		m.mm.queueWait.Observe(time.Since(queuedAt).Seconds())
	}
	// Every ending from here on is one the job metrics classify.
	defer func() { m.mm.finish(rep, err) }()
	if err != nil {
		return nil, err
	}
	defer m.jobs.release()
	select {
	case <-m.closed:
		return nil, ErrMachineClosed
	default:
	}
	if m.dead.Load() {
		return nil, ErrWorldFailed
	}
	rep, err = m.run(ctx, src, rs)
	// Contain job-scoped failures: lift a *comm.JobError coming back from
	// the simulation to the public *JobError, and restore the world
	// (verified clean or rebuilt) BEFORE returning, so the machine is
	// healthy for the next caller.
	var ce *comm.JobError
	if errors.As(err, &ce) {
		rep, err = nil, &JobError{JobError: ce, Rebuilt: m.restoreWorld()}
	}
	return rep, err
}

// fifoSem is a 1-slot semaphore whose waiters are granted the slot in
// strict arrival order: release hands the slot directly to the oldest
// waiter. A buffered channel raced by every waiter's select would wake
// waiters in whatever order the runtime picked, so under load a job could be
// overtaken arbitrarily often and the queue-wait histogram would measure
// scheduler luck, not queue depth.
type fifoSem struct {
	mu   sync.Mutex
	held bool
	// waiters is the FIFO queue. Each entry is a 1-buffered channel the
	// releaser sends the slot into; waiters only ever exist while held is
	// true (a grant keeps the slot held, release clears held only when the
	// queue is empty).
	waiters []chan struct{}
}

// acquire takes the slot, queueing FIFO behind earlier callers. It returns
// ctx.Err() if ctx expires first, ErrMachineClosed if closed fires first (a
// nil closed channel never fires). A caller that is already cancelled or
// closed never enters the queue.
func (s *fifoSem) acquire(ctx context.Context, closed <-chan struct{}) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
	}
	select {
	case <-closed:
		return ErrMachineClosed
	default:
	}
	s.mu.Lock()
	if !s.held {
		s.held = true
		s.mu.Unlock()
		return nil
	}
	w := make(chan struct{}, 1)
	s.waiters = append(s.waiters, w)
	s.mu.Unlock()
	select {
	case <-w:
		return nil
	case <-ctx.Done():
		s.abandon(w)
		return ctx.Err()
	case <-closed:
		s.abandon(w)
		return ErrMachineClosed
	}
}

// abandon removes w from the queue. If w was already granted (the grant
// raced the abandonment), the slot is passed straight on to the next
// waiter so it is never lost.
func (s *fifoSem) abandon(w chan struct{}) {
	s.mu.Lock()
	if i := slices.Index(s.waiters, w); i >= 0 {
		s.waiters = slices.Delete(s.waiters, i, i+1)
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	<-w // grant already sent (buffered): take it and hand it on
	s.release()
}

// release hands the slot to the oldest waiter, or frees it when none wait.
func (s *fifoSem) release() {
	s.mu.Lock()
	if len(s.waiters) > 0 {
		w := s.waiters[0]
		s.waiters = slices.Delete(s.waiters, 0, 1)
		w <- struct{}{} // buffered: never blocks, held stays true
		s.mu.Unlock()
		return
	}
	s.held = false
	s.mu.Unlock()
}

// pending reports the number of queued waiters (tests use it to pin FIFO
// order without sleeping).
func (s *fifoSem) pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.waiters)
}

// restoreWorld returns the machine to a runnable state after a contained
// fault and reports whether a rebuild was needed. A world the fault broke
// (poisoned barrier: stall, lost PE) is always rebuilt; a world that
// unwound cooperatively is kept only if a probe job proves it still
// completes collectives correctly — graceful degradation in one step.
//
// A distributed world is never rebuilt: its worker processes' halves
// cannot be transparently re-dialed into a known-clean state, so a fault
// that breaks it condemns the machine (ErrWorldFailed) instead.
func (m *Machine) restoreWorld() (rebuilt bool) {
	w := m.world.Load()
	if m.lt != nil {
		if !w.Broken() && !m.lt.Failed() && m.probeWorld() {
			return false
		}
		m.dead.Store(true)
		w.Close()
		m.lt.Close()
		return false
	}
	if !w.Broken() && m.probeWorld() {
		return false
	}
	w.Close()
	// The rebuilt world re-resolves the same metric series (get-or-create),
	// so substrate counters keep accumulating across the rebuild.
	nw := comm.NewWorld(m.cfg.PEs, comm.WithThreads(m.cfg.Threads), comm.WithCost(m.cfg.Cost),
		comm.WithMetrics(m.cfg.Metrics))
	nw.Start()
	m.world.Store(nw)
	m.rebuilds.Add(1)
	if m.mm != nil {
		m.mm.rebuilds.Inc()
	}
	return true
}

// probeStallTimeout bounds the post-fault health probe: the probe job is a
// single tiny collective, so a world that cannot finish it in this long is
// not clean.
const probeStallTimeout = 2 * time.Second

// probeWorld verifies the world after a cooperative abort by running one
// probe job and checking rank 0's sum. On a distributed machine the probe is
// a dispatched job like any other, so it also proves the workers and the
// wire. It runs under its own deadline, not the failed job's context.
func (m *Machine) probeWorld() bool {
	j, err := m.runJob(context.Background(), jobProbe, nil, runSettings{stall: probeStallTimeout})
	return err == nil && j.probeSum == m.cfg.PEs
}

// run executes one Compute on the machine's current world. The caller holds
// the job slot.
func (m *Machine) run(ctx context.Context, src Source, rs runSettings) (*Report, error) {
	start := time.Now()
	j, err := m.runJob(ctx, jobMSF, src, rs)
	if err != nil {
		return nil, err
	}
	rep, w := &j.rep, j.w
	rep.WallSeconds = time.Since(start).Seconds()
	rep.ModeledSeconds = w.MaxClock()
	if rep.ModeledSeconds > 0 {
		rep.EdgesPerSecond = float64(rep.InputEdges) / rep.ModeledSeconds
	}
	rep.Phases = w.Phases()
	rep.Stats = w.TotalStats()
	// The local shares lie in the PEs' arenas until the next job, which
	// cannot start while this caller holds the job slot.
	rep.MSTEdges = reportFromShares(j.shares, &m.report)
	return rep, nil
}

// runJob runs one job of the given kind on the machine's current world and,
// on a distributed machine, on every worker — the only place the remote
// halves are started, finished or drained. The job-control streams stay in
// lockstep whatever happens: when the leader's ranks completed the job, the
// workers' reports are folded into the world's aggregates before anyone
// reads them; on any failure — including an input error every rank left
// early on, which the workers saw too and completed past — the pending
// reports are drained instead.
func (m *Machine) runJob(ctx context.Context, kind string, src Source, rs runSettings) (*job, error) {
	w := m.world.Load()
	if m.lt != nil {
		if err := m.startRemote(kind, src, rs); err != nil {
			return nil, err
		}
	}
	j, err := runKind(ctx, w, kind, src, rs)
	if err == nil {
		err = j.inputErr
	}
	if m.lt != nil {
		if err != nil {
			m.drainRemote(w)
		} else if err = m.finishRemote(w, j.shares); err != nil {
			// The leader's ranks finished but the workers' half cannot be
			// trusted or reached: condemn the machine.
			m.dead.Store(true)
			err = fmt.Errorf("%w: %w", ErrWorldFailed, err)
		}
	}
	if err != nil {
		return nil, err
	}
	return j, nil
}

// startRemote dispatches one job's spec to every worker and arms the wire
// deadlines from its stall budget. A dispatch failure condemns the machine
// (the streams' states are unknowable).
func (m *Machine) startRemote(kind string, src Source, rs runSettings) error {
	spec, err := specOf(kind, src, rs)
	if err != nil {
		return err
	}
	m.lt.SetIOTimeout(ioTimeoutFor(rs.stall))
	if err := m.lt.StartJob(encodeWire(spec)); err != nil {
		m.dead.Store(true)
		return fmt.Errorf("%w: dispatching %s job: %w", ErrWorldFailed, kind, err)
	}
	return nil
}

// finishRemote collects every worker's end-of-job report and folds it into
// the leader world's aggregates (and, for MSF jobs, the share table). Any
// error — a wire failure, an undecodable report, a worker-side failure the
// superstep flags did not already surface — condemns the machine (runJob).
func (m *Machine) finishRemote(w *comm.World, shares [][]graph.Edge) error {
	reports, err := m.lt.FinishJob()
	if err != nil {
		return fmt.Errorf("collecting worker reports: %w", err)
	}
	for _, b := range reports {
		end, err := decodeWire[wireJobEnd]("job report", b)
		if err != nil {
			return err
		}
		if !end.OK {
			// The leader's ranks finished but this worker's did not — SPMD
			// divergence the flags should have caught. Nothing to trust.
			return fmt.Errorf("worker ranks [%d,%d) failed: %s", end.Lo, end.Hi, end.Err)
		}
		if err := end.merge(w, shares); err != nil {
			return err
		}
	}
	return nil
}

// drainRemote keeps the job-control streams synchronized after a job the
// leader's ranks did not complete normally. When the world unwound
// cooperatively (abort or cancel verdict, or an input error every rank
// returned on) the workers still send reports — read and discard them so
// the next job's frames line up. After a transport failure or a poisoned
// world there is nothing left to read; restoreWorld condemns the machine.
func (m *Machine) drainRemote(w *comm.World) {
	if w.Broken() || m.lt.Failed() {
		return
	}
	if _, err := m.lt.FinishJob(); err != nil {
		m.dead.Store(true)
	}
}
