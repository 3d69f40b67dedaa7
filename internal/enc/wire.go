package enc

// Wire framing for the transport layer (see internal/transport/tcp): every
// message between a leader and a worker process is one length-prefixed frame
// — a 4-byte little-endian payload length, a 1-byte frame kind, and the
// payload. Every payload is a sequence of Codec encodings (codec.go), so
// malformed input surfaces as a typed error (ErrTruncated, ErrOversized,
// ErrCorrupt) instead of a panic or an out-of-range slice.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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
