package enc

// Wire framing for the transport layer (see internal/transport/tcp): every
// message between a leader and a worker process is one length-prefixed frame
// — a 4-byte little-endian payload length, a 1-byte frame kind, and the
// payload. Payloads are built with the append-style primitives below and
// decoded with the sticky-error Reader, so malformed input surfaces as a
// typed error (ErrTruncated, ErrOversized, ErrCorrupt) instead of a panic or
// an out-of-range slice.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// MaxFrameSize bounds one frame's payload. It is far above anything the
// superstep protocol produces (per-pair slots of a simulated world), so
// hitting it means a corrupt length prefix, not a big job.
const MaxFrameSize = 1 << 28

// Typed wire-format errors. Decoders return (never panic on) these; the
// transport maps them onto the broken-world machinery.
var (
	// ErrTruncated reports a frame or field cut short of its declared length.
	ErrTruncated = errors.New("enc: truncated wire data")
	// ErrOversized reports a length prefix beyond MaxFrameSize (or a field
	// length beyond its enclosing frame).
	ErrOversized = errors.New("enc: oversized wire data")
	// ErrCorrupt reports structurally invalid wire data (bad varint, absurd
	// count, unknown flag byte).
	ErrCorrupt = errors.New("enc: corrupt wire data")
)

// frameHeaderSize is the length prefix plus the kind byte.
const frameHeaderSize = 5

// WriteFrame writes one frame: 4-byte little-endian payload length, the kind
// byte, and the payload. The caller owns buffering (wrap the conn in a
// bufio.Writer and flush at protocol boundaries).
func WriteFrame(w io.Writer, kind uint8, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return fmt.Errorf("%w: frame payload %d bytes exceeds %d", ErrOversized, len(payload), MaxFrameSize)
	}
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = kind
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) == 0 {
		return nil
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame, reusing buf when it is large enough. A clean
// EOF before any header byte is returned as io.EOF (the peer closed between
// frames); anything shorter than the declared layout is ErrTruncated, and a
// length prefix beyond MaxFrameSize is ErrOversized — read without
// allocating, so a corrupt peer cannot make this process reserve 4 GiB.
func ReadFrame(r io.Reader, buf []byte) (kind uint8, payload []byte, err error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		if err == io.ErrUnexpectedEOF {
			return 0, nil, fmt.Errorf("%w: frame header", ErrTruncated)
		}
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n > MaxFrameSize {
		return 0, nil, fmt.Errorf("%w: frame length prefix %d exceeds %d", ErrOversized, n, MaxFrameSize)
	}
	kind = hdr[4]
	if n == 0 {
		return kind, buf[:0], nil
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	payload = buf[:n]
	if got, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return 0, nil, fmt.Errorf("%w: frame payload (%d of %d bytes)", ErrTruncated, got, n)
		}
		return 0, nil, err
	}
	return kind, payload, nil
}

// Append-style payload builders. All little-endian, fixed width unless named
// otherwise; AppendBytes/AppendString carry a uvarint length prefix.

// AppendU8 appends one byte.
func AppendU8(b []byte, v uint8) []byte { return append(b, v) }

// AppendU32 appends v little-endian.
func AppendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

// AppendU64 appends v little-endian.
func AppendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

// AppendI64 appends v as its two's-complement little-endian bits.
func AppendI64(b []byte, v int64) []byte { return AppendU64(b, uint64(v)) }

// AppendF64 appends v's IEEE-754 bits little-endian — bit-exact round trip,
// which the modeled-clock parity between transports depends on.
func AppendF64(b []byte, v float64) []byte { return AppendU64(b, math.Float64bits(v)) }

// AppendUvarint appends v in the standard varint encoding.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendBytes appends a uvarint length prefix and the bytes.
func AppendBytes(b []byte, v []byte) []byte {
	b = AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

// AppendString appends a uvarint length prefix and the string bytes.
func AppendString(b []byte, v string) []byte {
	b = AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

// Reader decodes a frame payload with a sticky error: the first malformed
// field latches Err and every later read returns a zero value, so decoders
// read a whole layout linearly and check Err once at the end.
type Reader struct {
	b   []byte
	err error
}

// NewReader wraps a payload for decoding.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first decode error, or nil.
func (r *Reader) Err() error { return r.err }

// Len reports the bytes not yet consumed.
func (r *Reader) Len() int { return len(r.b) }

// fail latches the reader's first error.
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *Reader) take(n int, what string) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b) {
		r.fail(fmt.Errorf("%w: %s needs %d bytes, %d left", ErrTruncated, what, n, len(r.b)))
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1, "u8")
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4, "u32")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8, "u64")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a little-endian two's-complement int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads IEEE-754 bits little-endian.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Uvarint reads a standard varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail(fmt.Errorf("%w: bad uvarint", ErrCorrupt))
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Bytes reads a uvarint length prefix and returns a view of that many bytes
// (valid as long as the underlying payload buffer).
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) {
		r.fail(fmt.Errorf("%w: %d-byte field in %d-byte remainder", ErrOversized, n, len(r.b)))
		return nil
	}
	return r.take(int(n), "bytes")
}

// String reads a uvarint length prefix and that many bytes as a string.
func (r *Reader) String() string { return string(r.Bytes()) }
