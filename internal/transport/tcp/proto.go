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
	protoVersion uint32 = 10
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

// preamble opens both handshake frames: a WELCOME is exactly this, and a
// HELLO starts with it, so a peer on another protocol version still decodes
// it and the error names both versions.
type preamble struct {
	Magic, Version uint32
	Probe          uint64
}

// ours is this process's preamble.
var ours = preamble{Magic: protoMagic, Version: protoVersion, Probe: endianProbe}

// Handshake is the world geometry and cost model a worker learns from the
// leader's HELLO; the worker builds its comm.World from it.
type Handshake struct {
	P, Lo, Hi int
	Threads   int
	Alpha     float64
	Beta      float64
	Compute   float64
}

// hello is the leader's per-connection opening frame: the world this worker
// must host and the cost model it must run.
type hello struct {
	preamble
	WordSize uint8
	Handshake
}

// stepHead opens a STEP frame: the superstep and the worker's job-control
// flags and not-yet-shipped faults.
type stepHead struct {
	Epoch uint64
	Flags transport.Flags
}

// slotHead precedes each rank's deposit in STEP and REPLY frames: the
// deposit's tag and clock, and the length of the value's codec encoding that
// follows it (-1: no value).
type slotHead struct {
	Tag   uint32
	Len   int32
	Clock float64
}

// Every frame payload is a sequence of these codecs' encodings. All but the
// STEP head are POD, so their encoding is their memory image.
var (
	preambleCodec = enc.CodecFor[preamble]()
	helloCodec    = enc.CodecFor[hello]()
	stepCodec     = enc.CodecFor[stepHead]()
	slotCodec     = enc.CodecFor[slotHead]()
	verdictCodec  = enc.CodecFor[uint8]()
)

// checkPreamble decodes the preamble a HELLO or WELCOME starts with and
// names what differs from this process's.
func checkPreamble(payload []byte) error {
	v, _, err := preambleCodec.Decode(payload)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	switch p := v.(preamble); {
	case p.Magic != protoMagic:
		return fmt.Errorf("%w: magic %#x", ErrHandshake, p.Magic)
	case p.Version != protoVersion:
		return fmt.Errorf("%w: version %d, want %d", ErrHandshake, p.Version, protoVersion)
	case p.Probe != endianProbe:
		return fmt.Errorf("%w: byte order or word size differs (probe %#x)", ErrHandshake, p.Probe)
	}
	return nil
}

// parseHello checks a HELLO against this process and returns the world it
// describes. Bytes after the hello are ignored: the frame length bounds the
// payload.
func parseHello(payload []byte) (Handshake, error) {
	if err := checkPreamble(payload); err != nil {
		return Handshake{}, err
	}
	v, _, err := helloCodec.Decode(payload)
	if err != nil {
		return Handshake{}, fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	h := v.(hello)
	if h.WordSize != wordSize {
		return Handshake{}, fmt.Errorf("%w: byte order or word size differs (word %d)", ErrHandshake, h.WordSize)
	}
	if hs := h.Handshake; hs.P < 1 || hs.Lo < 0 || hs.Hi <= hs.Lo || hs.Hi > hs.P {
		return Handshake{}, fmt.Errorf("%w: rank block [%d,%d) of %d", ErrHandshake, hs.Lo, hs.Hi, hs.P)
	}
	return h.Handshake, nil
}

// appendSlot appends one rank's deposit: its slotHead, then, when the slot
// has a value and a codec, the value's encoding. A nil codec or nil value
// (barriers, drains) travels as Len -1 and decodes back to a nil Val.
func appendSlot(b []byte, d *transport.Deposit) []byte {
	head := slotHead{Tag: d.Tag, Len: -1, Clock: d.Clock}
	at := len(b)
	b = slotCodec.Append(b, head)
	if d.Codec == nil || d.Val == nil {
		return b
	}
	start := len(b)
	b = d.Codec.Append(b, d.Val)
	head.Len = int32(len(b) - start)
	slotCodec.Append(b[at:at], head) // rewrites the head where it lies
	return b
}

// readSlots decodes the slots of ranks [lo, hi) from b into board and
// returns the bytes after them. Values are decoded with cd, the receiver's
// codec for the current superstep; if cd is nil (the receiver deposited no
// codec: a drain or a valueless collective) the value bytes are skipped and
// Val stays nil, which is safe because such supersteps never read values.
func readSlots(b []byte, board []transport.Deposit, lo, hi int, cd *enc.Codec) ([]byte, error) {
	for rank := lo; rank < hi; rank++ {
		v, rest, err := slotCodec.Decode(b)
		if err != nil {
			return nil, fmt.Errorf("rank %d: %w", rank, err)
		}
		h := v.(slotHead)
		board[rank] = transport.Deposit{Tag: h.Tag, Clock: h.Clock}
		if h.Len == -1 {
			b = rest
			continue
		}
		if h.Len < 0 {
			return nil, fmt.Errorf("%w: rank %d: value length %d", enc.ErrCorrupt, rank, h.Len)
		}
		if int(h.Len) > len(rest) {
			return nil, fmt.Errorf("%w: rank %d: %d-byte value in %d bytes", enc.ErrTruncated, rank, h.Len, len(rest))
		}
		raw := rest[:h.Len]
		b = rest[h.Len:]
		if cd == nil {
			continue
		}
		val, left, err := cd.Decode(raw)
		if err != nil {
			return nil, fmt.Errorf("rank %d: %w", rank, err)
		}
		if len(left) != 0 {
			return nil, fmt.Errorf("%w: rank %d: %d bytes after %s value", enc.ErrCorrupt, rank, len(left), cd.Name())
		}
		board[rank].Val = val
	}
	return b, nil
}

// parseStep decodes a STEP payload: its head, then the slots of ranks
// [lo, hi) into board. It returns the head and the slot section, which the
// leader relays to the other workers as it lies.
func parseStep(payload []byte, board []transport.Deposit, lo, hi int, cd *enc.Codec) (stepHead, []byte, error) {
	v, slots, err := stepCodec.Decode(payload)
	if err != nil {
		return stepHead{}, nil, err
	}
	rest, err := readSlots(slots, board, lo, hi, cd)
	if err != nil {
		return stepHead{}, nil, err
	}
	if len(rest) != 0 {
		return stepHead{}, nil, fmt.Errorf("%w: %d bytes after the slots", enc.ErrCorrupt, len(rest))
	}
	return v.(stepHead), slots, nil
}

// parseReply decodes a REPLY payload: the verdict, then the slot of every
// rank outside [lo, hi) into board. A REPLY of the verdict alone is the
// leader's abort; the board's remote slots are then stale, which an abort
// superstep never reads.
func parseReply(payload []byte, board []transport.Deposit, lo, hi int, cd *enc.Codec) (uint8, error) {
	v, rest, err := verdictCodec.Decode(payload)
	if err != nil {
		return 0, err
	}
	verdict := v.(uint8)
	if len(rest) == 0 {
		if verdict != transport.VerdictAbort {
			return 0, fmt.Errorf("%w: slotless REPLY with verdict %d", ErrProtocol, verdict)
		}
		return verdict, nil
	}
	if rest, err = readSlots(rest, board, 0, lo, cd); err == nil {
		rest, err = readSlots(rest, board, hi, len(board), cd)
	}
	if err != nil {
		return 0, err
	}
	if len(rest) != 0 {
		return 0, fmt.Errorf("%w: %d bytes after the slots", enc.ErrCorrupt, len(rest))
	}
	return verdict, nil
}
