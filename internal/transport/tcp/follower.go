package tcp

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"kamsta/internal/obs"
	"kamsta/internal/transport"
	"kamsta/internal/transport/shm"
)

// Follower is a worker process's side of a distributed world: it hosts
// ranks [Lo, Hi) on the embedded shared-memory substrate and completes
// every superstep by shipping its local block to the leader as a STEP
// frame and applying the REPLY's verdict and remote slots. It implements
// transport.Transport for the worker's comm.World.
type Follower struct {
	*shm.Substrate
	lk        *link
	ioTimeout atomic.Int64
	failed    atomic.Bool
	frameBuf  []byte
}

// handshakeTimeout bounds the HELLO/WELCOME exchange on a fresh
// connection, before any job's stall budget exists.
const handshakeTimeout = 30 * time.Second

// AcceptFollower handshakes an inbound leader connection: read HELLO,
// verify the wire fingerprint, send WELCOME, and build the follower for
// the assigned rank block. reg, when non-nil, receives the link's frame
// and byte counters labeled by the leader's address.
func AcceptFollower(conn net.Conn, reg *obs.Registry) (*Follower, Handshake, error) {
	lk := newLink(conn, conn.RemoteAddr().String(), reg)
	kind, payload, err := lk.readFrame(handshakeTimeout)
	if err != nil {
		return nil, Handshake{}, err
	}
	if kind != kHello {
		return nil, Handshake{}, fmt.Errorf("%w: frame kind %d, want HELLO", ErrProtocol, kind)
	}
	h, err := parseHello(payload)
	// Answer with this side's own preamble even when refusing, so the
	// leader can name what differs.
	if werr := lk.writeFrame(kWelcome, preambleCodec.Append(nil, ours), handshakeTimeout); err == nil {
		err = werr
	}
	if err != nil {
		return nil, Handshake{}, err
	}
	lk.lo, lk.hi = h.Lo, h.Hi
	f := &Follower{lk: lk}
	f.Substrate = shm.NewSubstrate(h.P, h.Lo, h.Hi, f.netSync)
	return f, h, nil
}

// SetIOTimeout bounds every subsequent superstep read and write; the
// worker sets it per job from the job spec's stall budget.
func (f *Follower) SetIOTimeout(d time.Duration) { f.ioTimeout.Store(int64(d)) }

func (f *Follower) timeout() time.Duration {
	if d := f.ioTimeout.Load(); d > 0 {
		return time.Duration(d)
	}
	return defaultIOTimeout
}

// Failed reports whether a transport failure condemned this world; the
// worker closes the connection and discards the world.
func (f *Follower) Failed() bool { return f.failed.Load() }

// netSync is the embedded substrate's completion hook: ship the local
// block and control flags as one STEP frame, then apply the leader's
// REPLY — verdict plus every slot outside the local block (parseReply).
// Any wire failure becomes a TransportFault and an abort slot.
func (f *Follower) netSync(epoch uint64, board []transport.Deposit, h transport.Host) (slot transport.Slot) {
	if f.failed.Load() {
		return transport.Slot{Verdict: transport.VerdictAbort}
	}
	defer func() {
		if r := recover(); r != nil {
			f.failed.Store(true)
			h.TransportFault(fmt.Errorf("tcp: superstep %d completion panicked: %v", epoch, r))
			slot = transport.Slot{Verdict: transport.VerdictAbort}
		}
	}()

	lo, hi := f.Local()
	buf := stepCodec.Append(f.frameBuf[:0], stepHead{Epoch: epoch, Flags: h.Flags()})
	for r := lo; r < hi; r++ {
		buf = appendSlot(buf, &board[r])
	}
	f.frameBuf = buf
	if err := f.lk.writeFrame(kStep, buf, f.timeout()); err != nil {
		return f.fault(h, err)
	}

	kind, payload, err := f.lk.readFrame(f.timeout())
	if err != nil {
		return f.fault(h, err)
	}
	if kind != kReply {
		return f.fault(h, fmt.Errorf("%w: frame kind %d, want REPLY", ErrProtocol, kind))
	}
	// The local block's deposits all carry this superstep's codec (or none,
	// on valueless supersteps — remote values then stay nil).
	verdict, err := parseReply(payload, board, lo, hi, board[lo].Codec)
	if err != nil {
		return f.fault(h, fmt.Errorf("tcp: REPLY: %w", err))
	}
	return h.CompleteWith(board, verdict)
}

func (f *Follower) fault(h transport.Host, err error) transport.Slot {
	f.failed.Store(true)
	h.TransportFault(err)
	return transport.Slot{Verdict: transport.VerdictAbort}
}

// NextJob blocks until the leader starts the next job and returns its
// opaque spec. No deadline applies — idling between jobs is normal. A
// clean connection close returns io.EOF: the leader is done with this
// worker.
func (f *Follower) NextJob() ([]byte, error) {
	if f.failed.Load() {
		return nil, fmt.Errorf("tcp: world transport failed; awaiting teardown")
	}
	kind, payload, err := f.lk.readFrame(0)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, err
	}
	if kind != kJobStart {
		f.failed.Store(true)
		return nil, fmt.Errorf("%w: frame kind %d, want JOBSTART", ErrProtocol, kind)
	}
	return append([]byte(nil), payload...), nil
}

// EndJob ships the worker's opaque end-of-job report to the leader.
func (f *Follower) EndJob(report []byte) error {
	return f.lk.writeFrame(kJobEnd, report, f.timeout())
}

// Drop releases the embedded substrate's retained values plus the wire
// scratch buffer.
func (f *Follower) Drop() {
	f.Substrate.Drop()
	f.frameBuf = nil
}

// Close closes the leader connection.
func (f *Follower) Close() error {
	f.lk.dead.Store(true)
	return f.lk.conn.Close()
}
