// Package tcp spans a simulated world across processes: one LEADER process
// hosts ranks [0, k) plus the job's driver, and each WORKER process
// (cmd/mstworker) hosts a contiguous block of the remaining ranks. Every
// superstep completes over persistent connections with length-prefixed
// frames (internal/enc): while all of a process's local ranks are blocked
// in its shared-memory barrier, the completion hook exchanges one STEP
// frame per worker (deposits, flags, faults, toward the leader) and one
// REPLY frame back (verdict plus the rest of the world's deposits), so the
// collectives above see exactly the board they would on the in-process
// substrate. Modeled clocks, message counts and byte charges are computed
// from deposit metadata identically on every backend — the wire changes
// wall time only.
//
// Failure mapping: a lost connection, corrupt frame or expired read
// deadline surfaces as Host.TransportFault — the job aborts with a
// *JobError (kind transport) through the normal verdict path and the world
// is marked broken; the poison hammer stays reserved for local protocol
// failures. Read deadlines take the job's stall timeout (SetIOTimeout), so
// a hung peer maps onto the same containment machinery as a hung PE.
package tcp

import (
	"errors"
	"fmt"

	"kamsta/internal/enc"
	"kamsta/internal/transport"
)

// Frame kinds of the leader-worker protocol.
const (
	kHello    uint8 = 1 // leader → worker: world geometry + wire fingerprint
	kWelcome  uint8 = 2 // worker → leader: handshake echo
	kJobStart uint8 = 3 // leader → worker: opaque job spec
	kJobEnd   uint8 = 4 // worker → leader: opaque job result
	kStep     uint8 = 5 // worker → leader: one superstep's local deposits + flags
	kReply    uint8 = 6 // leader → worker: verdict + the rest of the board
)

// protoMagic and protoVersion pin the wire dialect; endianProbe doubles as
// a byte-order and word-size fingerprint, since POD payloads are raw
// memory. A mismatch is a typed handshake error, never a silent corruption.
const (
	protoMagic   uint32 = 0x4b4d5450 // "KMTP"
	protoVersion uint32 = 8
	endianProbe  uint64 = 0x0102030405060708
)

// Typed protocol errors.
var (
	// ErrHandshake reports an incompatible peer (bad magic, version, byte
	// order or word size).
	ErrHandshake = errors.New("tcp: incompatible handshake")
	// ErrProtocol reports a frame that violates the protocol state machine
	// (wrong kind, wrong epoch).
	ErrProtocol = errors.New("tcp: protocol violation")
)

// hello is the leader's per-connection opening frame: the world geometry
// this worker must host and the cost model it must run.
type hello struct {
	p, lo, hi int
	threads   int
	alpha     float64
	beta      float64
	compute   float64
	wordSize  uint8
}

func appendHello(b []byte, h hello) []byte {
	b = enc.AppendU32(b, protoMagic)
	b = enc.AppendU32(b, protoVersion)
	b = enc.AppendU64(b, endianProbe)
	b = enc.AppendU8(b, h.wordSize)
	b = enc.AppendI64(b, int64(h.p))
	b = enc.AppendI64(b, int64(h.lo))
	b = enc.AppendI64(b, int64(h.hi))
	b = enc.AppendI64(b, int64(h.threads))
	b = enc.AppendF64(b, h.alpha)
	b = enc.AppendF64(b, h.beta)
	b = enc.AppendF64(b, h.compute)
	return b
}

func parseHello(payload []byte, wordSize uint8) (hello, error) {
	r := enc.NewReader(payload)
	magic, version, probe := r.U32(), r.U32(), r.U64()
	ws := r.U8()
	h := hello{wordSize: ws}
	h.p = int(r.I64())
	h.lo = int(r.I64())
	h.hi = int(r.I64())
	h.threads = int(r.I64())
	h.alpha = r.F64()
	h.beta = r.F64()
	h.compute = r.F64()
	if err := r.Err(); err != nil {
		return hello{}, fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	if magic != protoMagic {
		return hello{}, fmt.Errorf("%w: magic %#x", ErrHandshake, magic)
	}
	if version != protoVersion {
		return hello{}, fmt.Errorf("%w: version %d, want %d", ErrHandshake, version, protoVersion)
	}
	if probe != endianProbe || ws != wordSize {
		return hello{}, fmt.Errorf("%w: byte order or word size differs (probe %#x, word %d)", ErrHandshake, probe, ws)
	}
	if h.p < 1 || h.lo < 0 || h.hi <= h.lo || h.hi > h.p {
		return hello{}, fmt.Errorf("%w: rank block [%d,%d) of %d", ErrHandshake, h.lo, h.hi, h.p)
	}
	return h, nil
}

func appendWelcome(b []byte) []byte {
	b = enc.AppendU32(b, protoMagic)
	b = enc.AppendU32(b, protoVersion)
	b = enc.AppendU64(b, endianProbe)
	return b
}

func checkWelcome(payload []byte) error {
	r := enc.NewReader(payload)
	magic, version, probe := r.U32(), r.U32(), r.U64()
	if err := r.Err(); err != nil {
		return fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	if magic != protoMagic || version != protoVersion || probe != endianProbe {
		return fmt.Errorf("%w: welcome magic %#x version %d probe %#x", ErrHandshake, magic, version, probe)
	}
	return nil
}

// Flag bits of a STEP frame.
const (
	flagCancel uint8 = 1 << 0
	flagAbort  uint8 = 1 << 1
)

// appendFlags encodes the control half of a STEP frame: flag bits and the
// not-yet-shipped faults.
func appendFlags(b []byte, fl transport.Flags) []byte {
	var bits uint8
	if fl.Cancel {
		bits |= flagCancel
	}
	if fl.Abort {
		bits |= flagAbort
	}
	b = enc.AppendU8(b, bits)
	b = enc.AppendUvarint(b, uint64(len(fl.Faults)))
	for i := range fl.Faults {
		f := &fl.Faults[i]
		b = enc.AppendU8(b, f.Kind)
		b = enc.AppendU32(b, uint32(f.Rank))
		b = enc.AppendU32(b, uint32(f.Superstep))
		b = enc.AppendU32(b, uint32(f.Round))
		b = enc.AppendString(b, f.Phase)
		b = enc.AppendString(b, f.Panic)
		b = enc.AppendString(b, f.Stack)
	}
	return b
}

func readFlags(r *enc.Reader) (transport.Flags, error) {
	var fl transport.Flags
	bits := r.U8()
	fl.Cancel = bits&flagCancel != 0
	fl.Abort = bits&flagAbort != 0
	n := r.Uvarint()
	if err := r.Err(); err != nil {
		return fl, err
	}
	if n > uint64(r.Len()) { // each fault occupies well over one byte
		return fl, fmt.Errorf("%w: %d faults in %d bytes", enc.ErrOversized, n, r.Len())
	}
	for i := uint64(0); i < n; i++ {
		var f transport.RemoteFault
		f.Kind = r.U8()
		f.Rank = int32(r.U32())
		f.Superstep = int32(r.U32())
		f.Round = int32(r.U32())
		f.Phase = r.String()
		f.Panic = r.String()
		f.Stack = r.String()
		if err := r.Err(); err != nil {
			return fl, err
		}
		fl.Faults = append(fl.Faults, f)
	}
	return fl, nil
}

// appendSlot encodes one rank's deposit for the wire: tag, clock bits, a
// presence flag, and — when the slot has a value and a codec — the
// length-prefixed codec encoding. A nil codec or nil value (barriers,
// drains) travels as absent and decodes back to a nil Val.
func appendSlot(b []byte, d *transport.Deposit) []byte {
	b = enc.AppendU32(b, d.Tag)
	b = enc.AppendF64(b, d.Clock)
	if d.Codec == nil || d.Val == nil {
		return enc.AppendU8(b, 0)
	}
	b = enc.AppendU8(b, 1)
	// Length prefix so a relaying process can forward the bytes without
	// owning the codec.
	val := d.Codec.Append(nil, d.Val)
	return enc.AppendBytes(b, val)
}

// readSlot decodes one wire slot into d, returning the raw (still encoded)
// payload view for relaying. Val is decoded with cd — the receiver's codec
// for the current superstep; if cd is nil (the receiver deposited no codec:
// a drain or a valueless collective) the payload is skipped and Val stays
// nil, which is safe because such supersteps never read values.
func readSlot(r *enc.Reader, d *transport.Deposit, cd *enc.Codec) (raw []byte, present bool, err error) {
	d.Tag = r.U32()
	d.Clock = r.F64()
	pf := r.U8()
	if err := r.Err(); err != nil {
		return nil, false, err
	}
	switch pf {
	case 0:
		return nil, false, nil
	case 1:
	default:
		return nil, false, fmt.Errorf("%w: slot presence flag %d", enc.ErrCorrupt, pf)
	}
	raw = r.Bytes()
	if err := r.Err(); err != nil {
		return nil, false, err
	}
	if cd == nil {
		return raw, true, nil
	}
	v, rest, err := cd.Decode(raw)
	if err != nil {
		return nil, false, err
	}
	if len(rest) != 0 {
		return nil, false, fmt.Errorf("%w: %d bytes after %s payload", enc.ErrCorrupt, len(rest), cd.Name())
	}
	d.Val = v
	return raw, true, nil
}

// appendRawSlot re-frames an already-encoded payload (a readSlot raw view)
// for relay to another process, without owning the codec.
func appendRawSlot(b []byte, d *transport.Deposit, raw []byte, present bool) []byte {
	b = enc.AppendU32(b, d.Tag)
	b = enc.AppendF64(b, d.Clock)
	if !present {
		return enc.AppendU8(b, 0)
	}
	b = enc.AppendU8(b, 1)
	return enc.AppendBytes(b, raw)
}
