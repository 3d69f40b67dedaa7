package tcp

import (
	"bufio"
	"fmt"
	"math/bits"
	"net"
	"sync/atomic"
	"time"

	"kamsta/internal/enc"
	"kamsta/internal/obs"
	"kamsta/internal/transport"
	"kamsta/internal/transport/shm"
)

// wordSize fingerprints the process's machine word for the handshake: POD
// payloads cross the wire as raw memory, so both ends must agree.
const wordSize = uint8(bits.UintSize / 8)

// Defaults for LeaderConfig's zero values, and the superstep I/O timeout
// before a job sets its own (SetIOTimeout).
const (
	defaultDialTimeout = 5 * time.Second
	defaultDialRetries = 20
	defaultDialBackoff = 100 * time.Millisecond
	maxDialBackoff     = 2 * time.Second
	defaultIOTimeout   = 60 * time.Second
)

// LeaderConfig describes the distributed world the leader process builds:
// total rank count, how many ranks stay local, the worker addresses that
// host the rest (contiguous blocks in address order), and the cost model
// every process must run.
type LeaderConfig struct {
	// P is the total rank count across all processes.
	P int
	// LocalRanks is how many ranks the leader hosts, as block [0, LocalRanks).
	// Rank 0 is always leader-local, so LocalRanks >= 1.
	LocalRanks int
	// Workers lists worker addresses ("host:port"); the remaining
	// P-LocalRanks ranks split over them contiguously, in order, as evenly
	// as possible. Every worker must receive at least one rank.
	Workers []string
	// Threads is the per-PE thread setting shipped to workers so their
	// worlds schedule like the leader's.
	Threads int
	// Alpha, Beta, Compute is the α-β cost model, shipped verbatim so every
	// process computes identical modeled clocks.
	Alpha, Beta, Compute float64
	// DialTimeout, DialRetries, DialBackoff govern worker connection
	// establishment: each dial attempt gets DialTimeout, failures retry up
	// to DialRetries times with doubling backoff starting at DialBackoff.
	// Zero values take defaults (5s, 20, 100ms).
	DialTimeout time.Duration
	DialRetries int
	DialBackoff time.Duration
	// Reg, when non-nil, receives per-link transport counters (frames,
	// bytes, dials, retries) labeled by worker address.
	Reg *obs.Registry
}

// link is one persistent worker connection and its per-superstep scratch.
// All superstep access is serialized by the substrate barrier (one
// completion at a time); job control (StartJob/FinishJob) runs between
// jobs, after the barrier quiesces.
type link struct {
	addr   string
	lo, hi int // the worker's rank block
	conn   net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	rbuf   []byte // ReadFrame reuse buffer
	seg    []byte // view of this worker's slots in its last STEP, for relay

	// dead is atomic because Close may be called from a shutdown goroutine
	// while the superstep goroutine is inside readFrame/writeFrame; all
	// other link state is serialized by the barrier.
	dead atomic.Bool

	framesTx, framesRx *obs.Counter
	bytesTx, bytesRx   *obs.Counter
}

func newLink(conn net.Conn, addr string, reg *obs.Registry) *link {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true) // one small frame per superstep per direction
	}
	lk := &link{
		addr: addr,
		conn: conn,
		br:   bufio.NewReader(conn),
		bw:   bufio.NewWriter(conn),
	}
	if reg != nil {
		peer := obs.L("peer", addr)
		lk.framesTx = reg.Counter("transport_tcp_frames_total", "frames sent/received per link", peer, obs.L("dir", "tx"))
		lk.framesRx = reg.Counter("transport_tcp_frames_total", "frames sent/received per link", peer, obs.L("dir", "rx"))
		lk.bytesTx = reg.Counter("transport_tcp_bytes_total", "frame payload bytes sent/received per link", peer, obs.L("dir", "tx"))
		lk.bytesRx = reg.Counter("transport_tcp_bytes_total", "frame payload bytes sent/received per link", peer, obs.L("dir", "rx"))
	}
	return lk
}

// writeFrame frames, sends and flushes one payload under a write deadline.
// Any failure marks the link dead: frame streams have no resync point, so
// a failed link never carries another frame.
func (lk *link) writeFrame(kind uint8, payload []byte, timeout time.Duration) error {
	if lk.dead.Load() {
		return fmt.Errorf("tcp: connection to %s is down", lk.addr)
	}
	if timeout > 0 {
		lk.conn.SetWriteDeadline(time.Now().Add(timeout))
	}
	if err := enc.WriteFrame(lk.bw, kind, payload); err != nil {
		lk.dead.Store(true)
		return fmt.Errorf("tcp: write to %s: %w", lk.addr, err)
	}
	if err := lk.bw.Flush(); err != nil {
		lk.dead.Store(true)
		return fmt.Errorf("tcp: write to %s: %w", lk.addr, err)
	}
	if lk.framesTx != nil {
		lk.framesTx.Inc()
		lk.bytesTx.Add(int64(len(payload)))
	}
	return nil
}

// readFrame reads one frame under a read deadline (0 means wait forever —
// only the worker's idle job wait uses that). The payload view is valid
// until the next readFrame on this link.
func (lk *link) readFrame(timeout time.Duration) (kind uint8, payload []byte, err error) {
	if lk.dead.Load() {
		return 0, nil, fmt.Errorf("tcp: connection to %s is down", lk.addr)
	}
	if timeout > 0 {
		lk.conn.SetReadDeadline(time.Now().Add(timeout))
	} else {
		lk.conn.SetReadDeadline(time.Time{})
	}
	kind, payload, err = enc.ReadFrame(lk.br, lk.rbuf)
	if err != nil {
		lk.dead.Store(true)
		return 0, nil, fmt.Errorf("tcp: read from %s: %w", lk.addr, err)
	}
	lk.rbuf = payload[:cap(payload)]
	if lk.framesRx != nil {
		lk.framesRx.Inc()
		lk.bytesRx.Add(int64(len(payload)))
	}
	return kind, payload, nil
}

// Leader is the distributed world's verdict-deciding process: it hosts
// ranks [0, LocalRanks) on the embedded shared-memory substrate and
// completes every superstep by gathering each worker's STEP frame,
// running the local completion over the fully populated board, and
// fanning the verdict plus the rest of the board back out as REPLY
// frames. It implements transport.Transport for the leader's comm.World.
type Leader struct {
	*shm.Substrate
	links     []*link
	ioTimeout atomic.Int64 // nanoseconds; see SetIOTimeout
	failed    atomic.Bool  // a link failed: the world must be rebuilt

	// Superstep scratch, serialized by the barrier.
	leaderSeg []byte // leader-local slots, encoded once per superstep
	frameBuf  []byte
}

// NewLeader splits the non-local ranks over the workers, dials each with
// retry and backoff, and handshakes the world geometry. On any failure all
// already-established connections are closed.
func NewLeader(cfg LeaderConfig) (*Leader, error) {
	if cfg.P < 1 || cfg.LocalRanks < 1 || cfg.LocalRanks >= cfg.P {
		return nil, fmt.Errorf("tcp: leader block [0,%d) of %d ranks is not a strict non-empty prefix", cfg.LocalRanks, cfg.P)
	}
	nw := len(cfg.Workers)
	remote := cfg.P - cfg.LocalRanks
	if nw == 0 || remote < nw {
		return nil, fmt.Errorf("tcp: %d remote ranks cannot cover %d workers", remote, nw)
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = defaultDialTimeout
	}
	if cfg.DialRetries <= 0 {
		cfg.DialRetries = defaultDialRetries
	}
	if cfg.DialBackoff <= 0 {
		cfg.DialBackoff = defaultDialBackoff
	}

	l := &Leader{}
	l.Substrate = shm.NewSubstrate(cfg.P, 0, cfg.LocalRanks, l.netSync)

	base, extra := remote/nw, remote%nw
	lo := cfg.LocalRanks
	for i, addr := range cfg.Workers {
		hi := lo + base
		if i < extra {
			hi++
		}
		lk, err := l.dial(addr, lo, hi, cfg)
		if err != nil {
			l.Close()
			return nil, err
		}
		l.links = append(l.links, lk)
		lo = hi
	}
	return l, nil
}

// dial establishes and handshakes one worker connection.
func (l *Leader) dial(addr string, lo, hi int, cfg LeaderConfig) (*link, error) {
	var dials, retries *obs.Counter
	if cfg.Reg != nil {
		peer := obs.L("peer", addr)
		dials = cfg.Reg.Counter("transport_tcp_dials_total", "dial attempts per worker", peer)
		retries = cfg.Reg.Counter("transport_tcp_dial_retries_total", "dial attempts after the first per worker", peer)
	}
	var conn net.Conn
	var err error
	backoff := cfg.DialBackoff
	for attempt := 0; ; attempt++ {
		if dials != nil {
			dials.Inc()
		}
		conn, err = net.DialTimeout("tcp", addr, cfg.DialTimeout)
		if err == nil {
			break
		}
		if attempt >= cfg.DialRetries {
			return nil, fmt.Errorf("tcp: dial %s: %w (after %d attempts)", addr, err, attempt+1)
		}
		if retries != nil {
			retries.Inc()
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > maxDialBackoff {
			backoff = maxDialBackoff
		}
	}
	lk := newLink(conn, addr, cfg.Reg)
	lk.lo, lk.hi = lo, hi
	h := hello{ours, wordSize, Handshake{
		P: cfg.P, Lo: lo, Hi: hi,
		Threads: cfg.Threads,
		Alpha:   cfg.Alpha, Beta: cfg.Beta, Compute: cfg.Compute,
	}}
	if err := lk.writeFrame(kHello, helloCodec.Append(nil, h), cfg.DialTimeout); err != nil {
		conn.Close()
		return nil, err
	}
	kind, payload, err := lk.readFrame(cfg.DialTimeout)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if kind != kWelcome {
		conn.Close()
		return nil, fmt.Errorf("%w: frame kind %d from %s, want WELCOME", ErrProtocol, kind, addr)
	}
	if err := checkPreamble(payload); err != nil {
		conn.Close()
		return nil, fmt.Errorf("%s: %w", addr, err)
	}
	return lk, nil
}

// SetIOTimeout bounds every subsequent superstep read and write. The
// Machine sets it per job from the job's stall budget, mapping a hung peer
// onto the same timeout a hung PE gets.
func (l *Leader) SetIOTimeout(d time.Duration) { l.ioTimeout.Store(int64(d)) }

func (l *Leader) timeout() time.Duration {
	if d := l.ioTimeout.Load(); d > 0 {
		return time.Duration(d)
	}
	return defaultIOTimeout
}

// Failed reports whether a transport failure has made the distributed
// world unusable (it must be discarded and rebuilt; connections do not
// recover mid-world).
func (l *Leader) Failed() bool { return l.failed.Load() }

// netSync is the embedded substrate's completion hook: it runs on
// whichever leader PE completes the local barrier, while every leader rank
// is blocked. One STEP per worker populates the board's remote slots, the
// local Complete decides the verdict, and one REPLY per worker ships the
// verdict plus every slot outside that worker's block. Any wire failure
// becomes a TransportFault and an abort slot — local ranks unwind through
// the normal verdict path, never a poison.
func (l *Leader) netSync(epoch uint64, board []transport.Deposit, h transport.Host) (slot transport.Slot) {
	if l.failed.Load() {
		// A previous superstep already failed; short-circuit so abort
		// drains terminate without touching dead links.
		return transport.Slot{Verdict: transport.VerdictAbort}
	}
	defer func() {
		if r := recover(); r != nil {
			l.failed.Store(true)
			h.TransportFault(fmt.Errorf("tcp: superstep %d completion panicked: %v", epoch, r))
			l.abortAll()
			slot = transport.Slot{Verdict: transport.VerdictAbort}
		}
	}()

	// Rank 0 is always leader-local, so its deposit carries this
	// superstep's codec (nil on valueless supersteps — then remote values
	// stay nil too, which only an abort-verdict superstep produces).
	cd := board[0].Codec
	var remote transport.Flags
	for _, lk := range l.links {
		if err := l.readStep(lk, epoch, board, cd, &remote); err != nil {
			l.failed.Store(true)
			h.TransportFault(err)
			l.abortAll()
			return transport.Slot{Verdict: transport.VerdictAbort}
		}
	}

	slot = h.Complete(board, remote)

	// Encode the leader block once; every REPLY starts with it.
	l.leaderSeg = l.leaderSeg[:0]
	lo, hi := l.Local()
	for r := lo; r < hi; r++ {
		l.leaderSeg = appendSlot(l.leaderSeg, &board[r])
	}
	for _, lk := range l.links {
		buf := l.frameBuf[:0]
		buf = verdictCodec.Append(buf, slot.Verdict)
		buf = append(buf, l.leaderSeg...)
		for _, other := range l.links {
			if other != lk {
				buf = append(buf, other.seg...)
			}
		}
		l.frameBuf = buf
		if err := lk.writeFrame(kReply, buf, l.timeout()); err != nil {
			l.failed.Store(true)
			h.TransportFault(err)
			l.abortAll()
			return transport.Slot{Verdict: transport.VerdictAbort}
		}
	}
	return slot
}

// readStep reads one worker's STEP frame: epoch check, flag/fault union,
// and the worker's rank block decoded into the board. lk.seg keeps the
// frame's slot section as a view, valid until lk's next read, so the other
// workers' REPLYs relay it without re-encoding.
func (l *Leader) readStep(lk *link, epoch uint64, board []transport.Deposit, cd *enc.Codec, remote *transport.Flags) error {
	kind, payload, err := lk.readFrame(l.timeout())
	if err != nil {
		return err
	}
	if kind != kStep {
		return fmt.Errorf("%w: frame kind %d from %s, want STEP", ErrProtocol, kind, lk.addr)
	}
	head, slots, err := parseStep(payload, board, lk.lo, lk.hi, cd)
	if err != nil {
		return fmt.Errorf("tcp: STEP from %s: %w", lk.addr, err)
	}
	if head.Epoch != epoch {
		return fmt.Errorf("%w: STEP epoch %d from %s at superstep %d", ErrProtocol, head.Epoch, lk.addr, epoch)
	}
	remote.Cancel = remote.Cancel || head.Flags.Cancel
	remote.Abort = remote.Abort || head.Flags.Abort
	remote.Faults = append(remote.Faults, head.Flags.Faults...)
	lk.seg = slots
	return nil
}

// abortAll best-effort ships a short abort REPLY (verdict only, no slots)
// to every still-live worker so their ranks unwind by verdict instead of
// waiting out their read deadlines. Failures are ignored — the world is
// already condemned.
func (l *Leader) abortAll() {
	for _, lk := range l.links {
		if !lk.dead.Load() {
			_ = lk.writeFrame(kReply, verdictCodec.Append(nil, transport.VerdictAbort), l.timeout())
		}
	}
}

// StartJob broadcasts an opaque job spec to every worker.
func (l *Leader) StartJob(spec []byte) error {
	if l.failed.Load() {
		return fmt.Errorf("tcp: world transport failed; rebuild the world")
	}
	for _, lk := range l.links {
		if err := lk.writeFrame(kJobStart, spec, l.timeout()); err != nil {
			l.failed.Store(true)
			return err
		}
	}
	return nil
}

// FinishJob collects each worker's opaque end-of-job report, in worker
// order. The worker sends it after its local ranks complete the job — on
// success, cooperative abort and cancel alike, the superstep streams stay
// synchronized, so the next frame on each link is the report. Stale STEP
// frames (a job torn down while a worker was mid-superstep) are skipped
// defensively.
func (l *Leader) FinishJob() ([][]byte, error) {
	if l.failed.Load() {
		return nil, fmt.Errorf("tcp: world transport failed; rebuild the world")
	}
	outs := make([][]byte, len(l.links))
	for i, lk := range l.links {
		for {
			kind, payload, err := lk.readFrame(l.timeout())
			if err != nil {
				l.failed.Store(true)
				return nil, err
			}
			if kind == kStep {
				continue
			}
			if kind != kJobEnd {
				l.failed.Store(true)
				return nil, fmt.Errorf("%w: frame kind %d from %s, want JOBEND", ErrProtocol, kind, lk.addr)
			}
			outs[i] = append([]byte(nil), payload...)
			break
		}
	}
	return outs, nil
}

// Drop releases the embedded substrate's retained values plus the wire
// scratch buffers.
func (l *Leader) Drop() {
	l.Substrate.Drop()
	l.leaderSeg, l.frameBuf = nil, nil
}

// Close closes every worker connection; workers observe EOF on their idle
// job wait and shut the world down.
func (l *Leader) Close() error {
	var first error
	for _, lk := range l.links {
		lk.dead.Store(true)
		if err := lk.conn.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
