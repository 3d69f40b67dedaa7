// Package comm simulates the distributed-memory machine model of the paper
// (§II-A): p processing elements (PEs) with strictly private memory,
// single-ported point-to-point communication, and the usual collective
// operations. Each PE is a goroutine; PEs interact only through the
// primitives of this package, so the communication structure of the
// algorithms — who sends what to whom in which round — is exactly that of
// the MPI original, with shared memory acting only as the wire.
//
// Two clocks run side by side:
//
//   - Wall time: real elapsed time of the simulation, reported per phase.
//   - Modeled time: the α-β cost model of the paper. Sending a message of
//     ℓ bytes costs α + βℓ; collectives charge the §II-A complexities
//     (e.g. α·log p + βℓ for broadcast/reduce, α·p + βℓ for a direct
//     personalized all-to-all with bottleneck volume ℓ). Local computation
//     charges a per-operation cost divided by the PE's thread count.
//
// Collectives synchronize modeled clocks BSP-style: every participant
// leaves the operation at max(entry clocks) + operation cost, so stragglers
// propagate exactly as they would on a real machine. Phase timers attribute
// modeled and wall time to named phases; the World aggregates the maximum
// over PEs, which is the quantity all the paper's figures plot.
//
// # Exchange protocol
//
// Every collective is one superstep over an epoch-stamped, double-buffered
// blackboard (see DESIGN.md): each PE publishes its deposit into
// board[epoch%2], all PEs meet at a single tree-barrier arrival, and then
// each PE reads the deposits it needs. No departure barrier is required:
// epoch e+2 is the earliest moment board[e%2] is written again, and no PE
// can reach epoch e+2 before every PE has passed the barrier of epoch e+1 —
// which it can only do after finishing its epoch-e reads. The same argument
// is the one ownership rule for deposits that reference arrays (see
// collectives.go): the depositor leaves them unchanged until its next
// collective has returned, and readers finish with them before entering
// theirs.
package comm

import (
	"fmt"
	"maps"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"kamsta/internal/arena"
	"kamsta/internal/enc"
	"kamsta/internal/faultinject"
	"kamsta/internal/obs"
	"kamsta/internal/par"
	"kamsta/internal/transport"
	"kamsta/internal/transport/shm"
)

// CostModel holds the machine parameters of the α-β model.
type CostModel struct {
	// Alpha is the startup overhead per message in seconds.
	Alpha float64
	// Beta is the transfer time per byte in seconds.
	Beta float64
	// Compute is the cost of one local edge-granularity operation in
	// seconds; parallel sections divide it by the PE's thread count.
	Compute float64
}

// DefaultCostModel returns parameters of the same order as the paper's
// machine (SuperMUC-NG: OmniPath 100 Gbit/s, ~10 µs MPI latency).
func DefaultCostModel() CostModel {
	return CostModel{
		Alpha:   10e-6,
		Beta:    1e-9,
		Compute: 2e-9,
	}
}

// World is a simulated machine of P PEs sharing a cost model. Create one
// with NewWorld, then call Run with the SPMD program.
type World struct {
	p       int
	threads int
	cost    CostModel

	// tr is the substrate every collective bottoms out on: one Exchange per
	// superstep per local rank (deposit, meet everyone, read the combined
	// slot). The default is the in-process shared-memory substrate
	// (internal/transport/shm) — the original epoch-stamped double-buffered
	// blackboard under a fan-in tree barrier, extracted verbatim; a TCP
	// transport (internal/transport/tcp) spans processes with the same
	// superstep protocol. The world does NOT own the transport: whoever
	// built it (WithTransport) closes it; only the default shm substrate is
	// world-created, and it needs no closing.
	tr transport.Transport
	// lo, hi is the contiguous rank range this process hosts (tr.Local());
	// [0, p) on a single-process world. wire is true when any rank is
	// remote: collectives then attach a value codec to every deposit so the
	// transport can serialize it.
	lo, hi int
	wire   bool

	mu     sync.Mutex
	phases map[string]PhaseTime // max-aggregated over PEs
	stats  Stats
	clocks []float64 // final modeled clock per PE, for the last Run

	// pes holds the per-rank job channels of a persistent world (Start);
	// nil means every Run spawns fresh PE goroutines. Per-job state
	// (cancellation request, observer, injector, fault records) lives on
	// the worldJob, not the world, so an abandoned job's stragglers can
	// never race the next job's setup.
	pes []chan *worldJob

	// progress counts completed collective supersteps across the world's
	// lifetime (incremented once per superstep by the pre-release
	// combiner); the stall watchdog samples it as the job's heartbeat.
	// arrived[r] is rank r's superstep arrival high-water mark — how many
	// barriers it has entered — read by the watchdog to report which ranks
	// reached a stalled superstep and which did not. Only local ranks
	// arrive; remote ranks always diagnose as Missing (their own process
	// runs its own watchdog).
	progress atomic.Uint64
	arrived  []arrival

	// broken marks a world whose containment protocol failed — a PE
	// goroutine was lost, a collective stalled past its deadline, or an
	// abort drain could not complete. A broken world's barrier is poisoned
	// and it must not run further jobs; the owner rebuilds it (see the
	// public Machine API).
	broken atomic.Bool

	// arenas holds each rank's scratch arena. Owned by the world (not the
	// per-job Comm) so the algorithms' per-round working memory survives
	// across rounds AND across jobs on a persistent machine; see
	// Comm.Scratch. The collectives keep their per-type slots there too
	// (slotsFor): reuse in the next job is safe because a job's readers
	// finish before its close-out barrier.
	arenas []*arena.Arena

	// pools holds each local rank's intra-PE thread pool (the paper's t
	// OpenMP threads per MPI process), built once from WithThreads; see
	// Comm.Pool. Remote ranks' entries stay nil.
	pools []*par.Pool

	// wm holds the world's resolved metric instruments (nil unless built
	// WithMetrics); see metrics.go for the update discipline.
	wm *worldMetrics

	// rings holds each rank's span ring for traced jobs, world-owned like
	// the arenas so tracing a steady-state job allocates nothing: rank r's
	// ring is created on r's first traced job and recycled afterwards.
	// Only rank r's PE goroutine touches rings[r].
	rings []*obs.Ring

	// books holds each rank's phase timers, world-owned for the same
	// reason: rank r's book is cleared when r's Comm for a job is made and
	// kept afterwards, so a warm job's phases allocate nothing. Only rank
	// r's PE goroutine touches books[r].
	books []phaseBook
}

// arrival is one rank's barrier-arrival counter, padded so watchdog reads
// never contend with neighbouring ranks' stores.
type arrival struct {
	v atomic.Int64
	_ [56]byte
}

// deposit is one PE's contribution to a collective: the transport layer's
// Deposit, padded there so adjacent ranks' slots never share a cache line.
type deposit = transport.Deposit

// Superstep verdicts, published in the combined slot by the completing
// party (see commHost.Complete). Exactly one process reads the asynchronous
// request flags per superstep; every PE acts on the published verdict,
// which is what makes the whole world unwind at the same collective.
const (
	// verdictRun continues the job.
	verdictRun = transport.VerdictRun
	// verdictCancel unwinds the job with the cancellation sentinel (the
	// job's context expired).
	verdictCancel = transport.VerdictCancel
	// verdictAbort unwinds the job with the abort sentinel (a PE faulted
	// and requested containment, or a watchdog fired).
	verdictAbort = transport.VerdictAbort
)

// Option configures a World.
type Option func(*World)

// WithCost sets the cost model.
func WithCost(cm CostModel) Option {
	return func(w *World) { w.cost = cm }
}

// WithTransport runs the world over the given substrate instead of the
// default in-process shared-memory one. The transport's total rank count
// must equal the world's p; only the transport's local rank range is hosted
// by this world's PE goroutines. The caller keeps ownership: the world
// never closes a transport it was given.
func WithTransport(t transport.Transport) Option {
	return func(w *World) { w.tr = t }
}

// WithThreads sets the number of intra-PE threads of every PE (the paper's
// OpenMP threads per MPI process): the width of each rank's Pool and the
// divisor of its ChargeCompute. Default 1.
func WithThreads(t int) Option {
	return func(w *World) {
		if t < 1 {
			t = 1
		}
		w.threads = t
	}
}

// NewWorld creates a machine with p PEs. It panics if p < 1.
func NewWorld(p int, opts ...Option) *World {
	if p < 1 {
		panic(fmt.Sprintf("comm: world size %d < 1", p))
	}
	w := &World{
		p:       p,
		threads: 1,
		cost:    DefaultCostModel(),
		phases:  make(map[string]PhaseTime),
		clocks:  make([]float64, p),
		arrived: make([]arrival, p),
		arenas:  make([]*arena.Arena, p),
		pools:   make([]*par.Pool, p),
		rings:   make([]*obs.Ring, p),
		books:   make([]phaseBook, p),
	}
	for i := range w.arenas {
		w.arenas[i] = arena.New()
		w.books[i].times = make(map[string]PhaseTime)
	}
	for _, o := range opts {
		o(w)
	}
	if w.tr == nil {
		w.tr = shm.New(p)
	}
	if w.tr.P() != p {
		panic(fmt.Sprintf("comm: transport spans %d ranks, world wants %d", w.tr.P(), p))
	}
	w.lo, w.hi = w.tr.Local()
	w.wire = w.lo != 0 || w.hi != p
	for r := w.lo; r < w.hi; r++ {
		w.pools[r] = par.NewPool(w.threads)
	}
	return w
}

// P reports the machine width.
func (w *World) P() int { return w.p }

// newComm builds rank's PE handle for one job. Only rank 0 carries the
// job's observer, so every phase/round event fires exactly once.
func (w *World) newComm(rank int, jb *worldJob) *Comm {
	c := &Comm{
		rank: rank,
		w:    w,
		jb:   jb,
		inj:  jb.inj,
		wire: w.wire,
		ph:   w.books[rank].reset(),
	}
	c.host = commHost{c}
	if rank == 0 {
		c.obs = jb.obs
	}
	if w.wm != nil {
		c.m = &w.wm.ranks[rank]
	}
	if jb.tr != nil {
		c.ring = w.ringFor(rank)
		c.traceEpoch = jb.traceEpoch
	}
	return c
}

// ringFor returns rank's span ring, reset for a new job; created on first
// use. Called from the PE's own goroutine only.
func (w *World) ringFor(rank int) *obs.Ring {
	r := w.rings[rank]
	if r == nil {
		r = obs.NewRing(obs.DefaultRingCap)
		w.rings[rank] = r
	}
	r.Reset()
	return r
}

// PhaseTime is the accumulated cost of one named phase.
type PhaseTime struct {
	Modeled float64       // modeled seconds (max over PEs when aggregated)
	Wall    time.Duration // wall seconds (max over PEs when aggregated)
	// Stats is the traffic charged during the phase, excluding nested
	// phases (summed over PEs when aggregated — times take the max because
	// PEs overlap, traffic sums because every byte is distinct).
	Stats Stats
}

// Phases returns the per-phase times, aggregated as the maximum over all
// PEs, reflecting the bulk-synchronous critical path.
func (w *World) Phases() map[string]PhaseTime {
	w.mu.Lock()
	defer w.mu.Unlock()
	return maps.Clone(w.phases)
}

// MaxClock reports the maximum modeled clock over all PEs after the last
// Run — the modeled makespan.
func (w *World) MaxClock() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	m := 0.0
	for _, c := range w.clocks {
		m = math.Max(m, c)
	}
	return m
}

// TotalStats returns traffic statistics summed over all PEs.
func (w *World) TotalStats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// ResetMetrics clears accumulated phase times, stats and clocks, keeping
// the machine itself reusable (e.g. between warm-up and measured rounds).
func (w *World) ResetMetrics() {
	w.mu.Lock()
	defer w.mu.Unlock()
	clear(w.phases)
	w.stats = Stats{}
	for i := range w.clocks {
		w.clocks[i] = 0
	}
}

// Stats counts communication traffic.
type Stats struct {
	Messages    int64 // point-to-point messages (or message slots in collectives)
	Bytes       int64 // payload bytes moved
	Collectives int64 // collective operations executed
}

func (s *Stats) add(o Stats) {
	s.Messages += o.Messages
	s.Bytes += o.Bytes
	s.Collectives += o.Collectives
}

// minus returns s - o componentwise (for attributing traffic deltas to
// phases).
func (s Stats) minus(o Stats) Stats {
	return Stats{
		Messages:    s.Messages - o.Messages,
		Bytes:       s.Bytes - o.Bytes,
		Collectives: s.Collectives - o.Collectives,
	}
}

// Comm is a PE's handle to the machine: its rank, its modeled clock, its
// phase timers and its traffic counters. A Comm must only be used by the
// goroutine it was handed to.
type Comm struct {
	rank  int
	w     *World
	jb    *worldJob // the job this handle belongs to
	epoch uint64    // collective supersteps completed; selects the board buffer

	clock float64 // modeled seconds since Run start
	stats Stats
	ph    *phaseBook // this rank's phase timers, world-owned (World.books)

	// round is the last distributed round this PE reported via EmitRound,
	// kept for fault diagnostics (JobError.Round).
	round int
	// inj is the job's fault injector (nil outside chaos runs), checked at
	// every collective boundary and exposed to graphio via FaultPoint.
	inj *faultinject.Injector

	// host is this PE's transport.Host, boxed once so passing it to the
	// transport on every collective does not allocate. pending is the
	// collective-specific combine step the superstep's completion runs if
	// this PE ends up completing the barrier's root. wire mirrors the
	// world's flag: collectives attach value codecs to deposits only when
	// some rank is remote.
	host    transport.Host
	pending combiner
	wire    bool

	// obs receives phase/round events; set on rank 0 only (see newComm).
	obs Observer

	// m points at this rank's resolved metric instruments (nil when the
	// world was built without WithMetrics); ring is this rank's span ring
	// for a traced job (nil otherwise), with timestamps relative to
	// traceEpoch. Both are strictly wall-side: nothing they feed is read
	// by the cost model.
	m          *rankMetrics
	ring       *obs.Ring
	traceEpoch time.Time
}

// combiner is a reducing collective's pre-release step: run once per
// superstep, by whichever PE completes the barrier, over every deposit. Its
// result lives in that PE's slots and is published as a pointer.
type combiner interface {
	combine(board []deposit) any
}

// phaseBook is one rank's phase timers: the time of every phase closed so
// far and the stack of open ones.
type phaseBook struct {
	times map[string]PhaseTime
	stack []phaseFrame
}

// reset empties b for a new job, keeping its map and stack, and returns it.
func (b *phaseBook) reset() *phaseBook {
	clear(b.times)
	b.stack = b.stack[:0]
	return b
}

type phaseFrame struct {
	name       string
	clockAt    float64
	wallAt     time.Time
	statsAt    Stats         // traffic counters at phase entry
	childTime  float64       // modeled time consumed by nested phases
	childWall  time.Duration // wall time consumed by nested phases
	childStats Stats         // traffic consumed by nested phases
}

// Rank reports this PE's rank in 0..P-1.
func (c *Comm) Rank() int { return c.rank }

// P reports the machine width.
func (c *Comm) P() int { return c.w.p }

// Threads reports the number of intra-PE threads (for dividing parallel
// compute charges).
func (c *Comm) Threads() int { return c.w.threads }

// Scratch returns this PE's scratch arena: world-owned, grow-only working
// memory recycled across Borůvka rounds and across jobs. Only the goroutine
// running this rank's share of the current job may use it.
func (c *Comm) Scratch() *arena.Arena { return c.w.arenas[c.rank] }

// Pool returns this PE's thread pool: world-owned like the scratch arena,
// Threads() wide. Only the goroutine running this rank's share of the
// current job may run loops on it.
func (c *Comm) Pool() *par.Pool { return c.w.pools[c.rank] }

// Clock returns this PE's current modeled time in seconds.
func (c *Comm) Clock() float64 { return c.clock }

// ChargeCompute adds the modeled cost of ops local operations executed by
// all threads in parallel.
func (c *Comm) ChargeCompute(ops int) {
	c.clock += float64(ops) * c.w.cost.Compute / float64(c.w.threads)
}

// ResetLocalMetrics zeroes this PE's modeled clock, phase timers and
// traffic counters. Use together with World.ResetMetrics (and barriers on
// both sides) to exclude setup work — e.g. graph generation — from a
// measurement. Panics if called inside an open phase.
func (c *Comm) ResetLocalMetrics() {
	if len(c.ph.stack) != 0 {
		panic("comm: ResetLocalMetrics inside an open phase")
	}
	c.clock = 0
	c.stats = Stats{}
	clear(c.ph.times)
}

// ChargeComm adds the modeled cost of msgs message startups plus bytes
// payload bytes. Communication strategies built on RawAlltoall use this for
// self-accounting.
func (c *Comm) ChargeComm(msgs int, bytes int) {
	c.clock += float64(msgs)*c.w.cost.Alpha + float64(bytes)*c.w.cost.Beta
	c.stats.Messages += int64(msgs)
	c.stats.Bytes += int64(bytes)
	if c.m != nil {
		c.m.messages.Add(int64(msgs))
		c.m.bytes.Add(int64(bytes))
	}
}

// PhaseBegin opens a named phase. Phases may nest; time spent in nested
// phases is attributed to the nested phase only.
func (c *Comm) PhaseBegin(name string) {
	c.note(EventPhaseBegin, name, 0, 0)
	c.ph.stack = append(c.ph.stack, phaseFrame{
		name:    name,
		clockAt: c.clock,
		wallAt:  time.Now(),
		statsAt: c.stats,
	})
}

// PhaseEnd closes the innermost open phase.
func (c *Comm) PhaseEnd() {
	n := len(c.ph.stack)
	if n == 0 {
		panic("comm: PhaseEnd without PhaseBegin")
	}
	fr := c.ph.stack[n-1]
	c.ph.stack = c.ph.stack[:n-1]
	modeled := c.clock - fr.clockAt - fr.childTime
	wall := time.Since(fr.wallAt) - fr.childWall
	pt := c.ph.times[fr.name]
	pt.Modeled += modeled
	pt.Wall += wall
	pt.Stats.add(c.stats.minus(fr.statsAt).minus(fr.childStats))
	c.ph.times[fr.name] = pt
	if n >= 2 {
		parent := &c.ph.stack[n-2]
		parent.childTime += c.clock - fr.clockAt
		parent.childWall += time.Since(fr.wallAt)
		parent.childStats.add(c.stats.minus(fr.statsAt))
	}
	c.note(EventPhaseEnd, fr.name, 0, 0)
}

// Phase runs f inside a named phase.
func (c *Comm) Phase(name string, f func()) {
	c.PhaseBegin(name)
	defer c.PhaseEnd()
	f()
}

// flush merges this PE's metrics into the world and refreshes this rank's
// export gauges.
func (c *Comm) flush() {
	c.w.Merge(c.rank, []float64{c.clock}, c.ph.times, c.stats)
	if c.m != nil {
		c.w.wm.refreshGauges(c.w, c.rank, c.clock)
	}
}

// log2Ceil returns ceil(log2(n)) with log2Ceil(1) == 0 and a minimum of 1
// for n > 1.
func log2Ceil(n int) int {
	k := 0
	for v := 1; v < n; v <<= 1 {
		k++
	}
	return k
}

// opTag identifies which collective (and, where needed, which internal
// round of it) a deposit belongs to: the low byte is the opcode, the rest an
// opcode-specific argument. A word-sized tag keeps the SPMD divergence check
// off the allocator, even where a collective names each of its rounds (the
// butterfly rounds of AllreduceVec).
type opTag uint32

const (
	opNone uint8 = iota
	opBarrier
	opAllreduce
	opARVFold
	opARVBfly
	opARVUnfold
	opExScan
	opAllgather
	opAllgatherConcat
	opAlltoall
	opPairExchange
	opGroupAllreduce
	opJobEnd
)

var opNames = [...]string{
	opNone:            "(none)",
	opBarrier:         "Barrier",
	opAllreduce:       "Allreduce",
	opARVFold:         "AllreduceVec/fold",
	opARVBfly:         "AllreduceVec/butterfly",
	opARVUnfold:       "AllreduceVec/unfold",
	opExScan:          "ExScan",
	opAllgather:       "Allgather",
	opAllgatherConcat: "AllgatherConcat",
	opAlltoall:        "Alltoall",
	opPairExchange:    "PairExchange",
	opGroupAllreduce:  "GroupAllreduce",
	opJobEnd:          "JobEnd",
}

func mkTag(op uint8, arg int) opTag { return opTag(op) | opTag(arg)<<8 }

func (t opTag) String() string {
	op := uint8(t)
	name := "(invalid)"
	if int(op) < len(opNames) {
		name = opNames[op]
	}
	if arg := t >> 8; arg != 0 {
		return fmt.Sprintf("%s[%d]", name, arg)
	}
	return name
}

// commHost is a PE's transport.Host: the completion side of the superstep
// protocol, called back by the transport while every local rank is blocked
// in the barrier. On the shared-memory substrate Complete is exactly the
// old pre-release combine step; on a distributed substrate the leader's
// completion hook feeds it the remote processes' flags and the followers
// apply the leader's verdict via CompleteWith.
type commHost struct{ c *Comm }

// Flags snapshots this process's asynchronous job-control state for
// transmission to the verdict-deciding process: the cancel/abort request
// flags and any faults not yet shipped.
func (h commHost) Flags() transport.Flags {
	jb := h.c.jb
	return transport.Flags{
		Cancel: jb.cancelReq.Load(),
		Abort:  jb.abortReq.Load(),
		Faults: jb.snapshotFaults(),
	}
}

// Complete is the pre-release combine step, run by whichever PE completes
// the barrier's root while every other PE is still blocked inside Wait. It
// folds the p deposited clocks into one global maximum — turning the BSP
// clock synchronization every full-world collective performs from O(p) work
// per PE into O(p) work total — and runs the collective's pending combine
// closure (if any) to reduce the deposited values once on behalf of
// everyone. All PEs deposit equivalent closures (SPMD), so it does not
// matter whose runs.
//
// Complete is also the containment choke point: one read of the job's
// asynchronous cancel/abort request flags — unioned with the remote
// processes' shipped flags — becomes the superstep's verdict, and a panic
// inside the combine closure is recovered here (via runPending), recorded
// as a fault and converted into an abort verdict, so even a faulting
// reduction operator releases the barrier coherently.
func (h commHost) Complete(board []deposit, remote transport.Flags) transport.Slot {
	jb := h.c.jb
	if len(remote.Faults) > 0 {
		h.RemoteFaults(remote.Faults)
	}
	verdict := verdictRun
	if jb.abortReq.Load() || remote.Abort {
		verdict = verdictAbort
	} else if jb.cancelReq.Load() || remote.Cancel {
		verdict = verdictCancel
	}
	return h.c.complete(board, verdict)
}

// CompleteWith is Complete under a verdict decided elsewhere (a follower
// process applying the leader's reply). A combine panic here cannot change
// the already-decided verdict globally, so it aborts locally — the recorded
// fault and abort request reach the leader with the next superstep's flags,
// unwinding the whole world one superstep later.
func (h commHost) CompleteWith(board []deposit, verdict uint8) transport.Slot {
	return h.c.complete(board, verdict)
}

// complete publishes one superstep's slot under the given verdict: fold the
// deposited clocks into the global maximum and, when the superstep runs, the
// pending combine closure's result (a panic in it turns the slot into an
// abort).
func (c *Comm) complete(board []deposit, verdict uint8) transport.Slot {
	m := board[0].Clock
	for i := 1; i < len(board); i++ {
		if board[i].Clock > m {
			m = board[i].Clock
		}
	}
	slot := transport.Slot{ClockMax: m, Verdict: verdict}
	if c.pending != nil && verdict == verdictRun {
		if val, ok := c.runPending(board); ok {
			slot.Val = val
		} else {
			slot.Verdict = verdictAbort
		}
	}
	c.w.progress.Add(1)
	return slot
}

// RemoteFaults records faults shipped from another process so they
// participate in the job's primary-error selection alongside local ones.
func (h commHost) RemoteFaults(fs []transport.RemoteFault) {
	for i := range fs {
		h.c.jb.recordFault(remoteJobError(&fs[i]))
	}
}

// TransportFault records a transport-level failure (lost connection,
// corrupt frame, exceeded deadline) as this job's fault and marks the world
// broken WITHOUT poisoning it: the transport publishes an abort slot for
// the current superstep, so the local ranks still unwind coherently through
// the normal verdict path, and the poison hammer stays reserved for worlds
// that can no longer complete a superstep at all.
func (h commHost) TransportFault(err error) {
	c := h.c
	je := &JobError{
		Kind:       FaultTransport,
		Rank:       c.rank,
		Superstep:  int(c.epoch),
		Round:      c.round,
		PanicValue: err,
	}
	if n := len(c.ph.stack); n > 0 {
		je.Phase = c.ph.stack[n-1].name
	}
	c.jb.recordFault(je)
	c.jb.abortReq.Store(true)
	c.w.broken.Store(true)
}

// runPending executes the collective's combine closure, containing any
// panic it raises: the fault is recorded against this PE (the closure runs
// algorithm code) and the superstep becomes an abort, releasing the barrier
// instead of leaving p-1 PEs blocked behind a dead combiner.
func (c *Comm) runPending(board []deposit) (val any, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			c.recordPanicFault(r)
			c.jb.abortReq.Store(true)
			val, ok = nil, false
		}
	}()
	return c.pending.combine(board), true
}

// exchange runs one collective superstep: it deposits (tag, val, clock) on
// this PE's slot of the current epoch's board, waits for everyone at the
// single arrival barrier (whose root-completer runs the pre-release combine
// — see preRelease), synchronizes this PE's modeled clock to the combined
// global maximum, and returns the full board and the combined value. The
// board is valid only until this PE's next collective; exchange advances the
// epoch so the next collective writes the other buffer, which is what makes
// the missing departure barrier safe (no slot of this board is rewritten
// before every PE has passed the NEXT barrier, and by then all reads of it
// are done).
//
// val is nil or a pointer into the depositing rank's slots (a *T, with cd
// the codec of T when some rank is remote). Deposits that reference memory
// are read under the one ownership rule of collectives.go — unless only the
// pre-release combine reads them, which runs while all depositors are still
// blocked.
//
// The tag check catches SPMD divergence bugs (different PEs calling
// different collectives) immediately instead of deadlocking.
func (c *Comm) exchange(tag opTag, val any, cd *enc.Codec, comb combiner) ([]deposit, any) {
	board, slot := c.deposit(tag, val, cd, comb)
	if slot.ClockMax > c.clock {
		c.clock = slot.ClockMax
	}
	return board, slot.Val
}

// exchangeSubset is exchange for collectives that synchronize only a subset
// of the world (pair exchanges, group reductions): it skips the global
// clock synchronization and never combines; the caller inspects deposit
// clocks itself.
func (c *Comm) exchangeSubset(tag opTag, val any, cd *enc.Codec) []deposit {
	board, _ := c.deposit(tag, val, cd, nil)
	return board
}

// deposit publishes (tag, val, clock) through the transport — which meets
// the world at the barrier and returns the fully populated board plus the
// combined slot — acts on the superstep's published verdict, checks SPMD
// agreement and advances the epoch.
func (c *Comm) deposit(tag opTag, val any, cd *enc.Codec, comb combiner) ([]deposit, transport.Slot) {
	c.faultPoint(faultinject.SiteCollective)
	w := c.w
	c.pending = comb
	dep := deposit{Tag: uint32(tag), Clock: c.clock, Val: val, Codec: cd}
	// Wall-side instrumentation of the superstep: entry timestamp taken
	// only when someone is looking, recorded after release. Never touches
	// the modeled clock.
	var t0 time.Time
	if c.m != nil || c.ring != nil {
		t0 = time.Now()
	}
	w.arrived[c.rank].v.Add(1)
	board, slot, poisoned := w.tr.Exchange(c.rank, c.epoch, dep, c.host)
	if c.m != nil || c.ring != nil {
		el := time.Since(t0)
		if c.m != nil {
			c.m.supersteps[uint8(tag)].Inc()
			c.m.barrierWait.Add(el.Seconds())
		}
		if c.ring != nil {
			c.ring.Append(obs.Span{
				Kind:  obs.SpanCollective,
				Rank:  int32(c.rank),
				Round: int32(c.round),
				Name:  opNames[uint8(tag)],
				Start: t0.Sub(c.traceEpoch).Nanoseconds(),
				Dur:   int64(el),
				Clock: dep.Clock,
			})
		}
	}
	if poisoned {
		// Poisoned substrate: the world is broken (lost PE or stall) and this
		// superstep never completed coherently — unwind without reading.
		panic(jobAborted{})
	}
	c.epoch++
	switch slot.Verdict {
	case verdictCancel:
		// The pre-release combiner saw the job's context expire. Every PE
		// of this superstep reads the same verdict, so the whole world
		// unwinds here together (recovered in runPE).
		panic(jobCancelled{})
	case verdictAbort:
		// A PE faulted and requested containment; unwind together. Checked
		// before the SPMD divergence audit because a faulted PE's drain
		// arrival legitimately deposits a mismatched tag.
		panic(jobAborted{})
	}
	if c.rank == 0 {
		for i := 1; i < w.p; i++ {
			if opTag(board[i].Tag) != tag {
				panic(fmt.Sprintf("comm: SPMD divergence: rank 0 in %v, rank %d in %v", tag, i, opTag(board[i].Tag)))
			}
		}
	}
	return board, slot
}

// closeOut is the job's final, invisible superstep (tag opJobEnd), run by
// every PE after its share of the job function returns. It guarantees the
// containment drain always has a barrier to rejoin: a PE that faults after
// the job's LAST algorithm collective still finds the rest of the world
// waiting here, so drainAbort can release it. The raw deposit charges no
// modeled time, no traffic, and no collective count — a job's metrics are
// bit-identical with and without it.
func (c *Comm) closeOut() {
	c.deposit(mkTag(opJobEnd, 0), nil, nil, nil)
}

// drainAbort rejoins the world after this PE faulted so the containment
// verdict can release everyone. SPMD lockstep means every other PE is at —
// or unconditionally heading to — this PE's current epoch barrier (the
// close-out superstep guarantees each PE at least one more arrival), so a
// single arrival completes that barrier; its pre-release combiner then
// observes the abort request this PE published before draining and issues
// the verdict that unwinds the world. The zero deposit (tag opNone, no
// value) overwrites this rank's stale slot, which is safe under the same
// parity argument as a normal deposit, and the superstep's abort verdict
// means its clock fold and tags are never observed. Reports whether the
// drain completed (false means the substrate was poisoned — the world is
// broken and already released, so there is nothing left to drain).
func (c *Comm) drainAbort() bool {
	c.pending = nil
	c.w.arrived[c.rank].v.Add(1)
	_, _, poisoned := c.w.tr.Exchange(c.rank, c.epoch, deposit{}, c.host)
	return !poisoned
}

// faultPoint visits one injection site; a no-op unless the job carries an
// armed injector whose rule matches. ActPanic raises an InjectedPanic —
// contained exactly like a real PE panic; ActDelay models a straggler
// (see straggle); ActIOError returns the
// synthetic error for sites that can surface one (collective sites have no
// error path and ignore it).
func (c *Comm) faultPoint(site faultinject.Site) error {
	r := c.inj.Check(site, c.rank)
	if r == nil {
		return nil
	}
	switch r.Action {
	case faultinject.ActPanic:
		panic(faultinject.InjectedPanic{Site: site, Rank: c.rank, Occurrence: r.Occurrence})
	case faultinject.ActDelay:
		c.straggle(r.Delay)
	case faultinject.ActIOError:
		return fmt.Errorf("%w at %v site, rank %d, occurrence %d", faultinject.ErrInjected, site, c.rank, r.Occurrence)
	}
	return nil
}

// straggle holds this rank for an injected delay. A delay of at least the
// armed stall watchdog's timeout is a stall by construction, so the rank
// waits until the watchdog has declared it or the job is aborting: it holds
// the progress counter still however late the watchdog goroutine is
// scheduled, and the outcome does not depend on the scheduler. A shorter
// delay, or one without a watchdog, sleeps.
func (c *Comm) straggle(d time.Duration) {
	jb := c.jb
	if jb.stalled == nil || d < jb.stallTimeout {
		time.Sleep(d)
		return
	}
	tick := time.NewTicker(jb.stallTimeout)
	defer tick.Stop()
	for !jb.abortReq.Load() {
		select {
		case <-jb.stalled:
			return
		case <-tick.C:
		}
	}
}

// FaultPoint exposes the job's injection points to the packages that host
// sites outside comm (graphio's bulk reads). It returns the injected error
// for ActIOError rules and nil otherwise; panic and delay actions take
// effect before it returns.
func (c *Comm) FaultPoint(site faultinject.Site) error { return c.faultPoint(site) }

// syncClocks sets this PE's clock to the maximum entry clock among the
// given member deposits (BSP barrier semantics for a sub-communicator).
func (c *Comm) syncClocks(deps []deposit, members []int) float64 {
	m := c.clock
	for _, i := range members {
		m = math.Max(m, deps[i].Clock)
	}
	c.clock = m
	return m
}

// wireCodec resolves the value codec for a collective's deposit: nil on a
// purely local world (the shared-memory substrate never serializes), the
// cached enc codec for T when some rank is remote.
func wireCodec[T any](c *Comm) *enc.Codec {
	if !c.wire {
		return nil
	}
	return enc.CodecFor[T]()
}

// Clocks returns a copy of the per-rank final modeled clocks of the last
// run (zero for ranks that have not flushed — e.g. remote ranks before
// their block is Merged).
func (w *World) Clocks() []float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]float64, len(w.clocks))
	copy(out, w.clocks)
	return out
}

// Merge folds one flushed rank block into this world's aggregates — a local
// PE at the end of its job (Comm.flush), or a remote process's ranks from
// its end-of-job report: maximum for times and clocks (PEs overlap), sum for
// traffic (every byte is distinct). clocks covers the block starting at
// global rank lo.
func (w *World) Merge(lo int, clocks []float64, phases map[string]PhaseTime, stats Stats) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i, cl := range clocks {
		if r := lo + i; r >= 0 && r < w.p && cl > w.clocks[r] {
			w.clocks[r] = cl
		}
	}
	for name, pt := range phases {
		agg := w.phases[name]
		agg.Modeled = math.Max(agg.Modeled, pt.Modeled)
		agg.Wall = max(agg.Wall, pt.Wall)
		agg.Stats.add(pt.Stats)
		w.phases[name] = agg
	}
	w.stats.add(stats)
}
