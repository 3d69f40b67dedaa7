package enc

import (
	"bytes"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		nil,
		{},
		{0xab},
		bytes.Repeat([]byte{0x5a}, 1<<16),
	}
	var buf bytes.Buffer
	for i, p := range payloads {
		if err := WriteFrame(&buf, uint8(i+1), p); err != nil {
			t.Fatalf("WriteFrame(%d): %v", i, err)
		}
	}
	var scratch []byte
	for i, p := range payloads {
		kind, got, err := ReadFrame(&buf, scratch)
		if err != nil {
			t.Fatalf("ReadFrame(%d): %v", i, err)
		}
		if kind != uint8(i+1) {
			t.Fatalf("frame %d: kind %d, want %d", i, kind, i+1)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame %d: payload %d bytes, want %d", i, len(got), len(p))
		}
		scratch = got
	}
	if _, _, err := ReadFrame(&buf, scratch); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
}

func TestFrameErrors(t *testing.T) {
	// Oversized write refused.
	if err := WriteFrame(io.Discard, 1, make([]byte, MaxFrameSize+1)); !errors.Is(err, ErrOversized) {
		t.Fatalf("oversized write: %v", err)
	}
	// Truncated header.
	if _, _, err := ReadFrame(strings.NewReader("\x01\x00"), nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short header: %v", err)
	}
	// Truncated payload.
	var buf bytes.Buffer
	if err := WriteFrame(&buf, 7, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	short := buf.Bytes()[:buf.Len()-2]
	if _, _, err := ReadFrame(bytes.NewReader(short), nil); !errors.Is(err, ErrTruncated) ||
		!strings.Contains(err.Error(), "(3 of 5 bytes)") {
		t.Fatalf("short payload: %v, want ErrTruncated naming 3 of 5 bytes", err)
	}
	// Corrupt length prefix beyond MaxFrameSize: rejected without allocating.
	hdr := AppendU32(nil, 0xffffffff)
	hdr = append(hdr, 1)
	if _, _, err := ReadFrame(bytes.NewReader(hdr), nil); !errors.Is(err, ErrOversized) {
		t.Fatalf("oversized prefix: %v", err)
	}
}

func TestReaderStickyError(t *testing.T) {
	b := AppendU32(nil, 42)
	r := NewReader(b)
	if got := r.U32(); got != 42 {
		t.Fatalf("U32 = %d", got)
	}
	if got := r.U64(); got != 0 { // truncated: latches error, returns zero
		t.Fatalf("U64 after end = %d", got)
	}
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("Err = %v", r.Err())
	}
	if got := r.U8(); got != 0 { // sticky
		t.Fatalf("U8 after error = %d", got)
	}
}

func TestReaderPrimitives(t *testing.T) {
	b := AppendU8(nil, 0x7f)
	b = AppendU32(b, 1<<31)
	b = AppendU64(b, 1<<63)
	b = AppendI64(b, -12345)
	b = AppendF64(b, math.Pi)
	b = AppendF64(b, math.NaN())
	b = AppendUvarint(b, 1<<40)
	b = AppendBytes(b, []byte{1, 2, 3})
	b = AppendString(b, "kamsta")

	r := NewReader(b)
	if v := r.U8(); v != 0x7f {
		t.Fatalf("U8 = %#x", v)
	}
	if v := r.U32(); v != 1<<31 {
		t.Fatalf("U32 = %#x", v)
	}
	if v := r.U64(); v != 1<<63 {
		t.Fatalf("U64 = %#x", v)
	}
	if v := r.I64(); v != -12345 {
		t.Fatalf("I64 = %d", v)
	}
	if v := r.F64(); math.Float64bits(v) != math.Float64bits(math.Pi) {
		t.Fatalf("F64 = %v", v)
	}
	if v := r.F64(); !math.IsNaN(v) {
		t.Fatalf("F64 NaN = %v", v)
	}
	if v := r.Uvarint(); v != 1<<40 {
		t.Fatalf("Uvarint = %d", v)
	}
	if v := r.Bytes(); !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Fatalf("Bytes = %v", v)
	}
	if v := r.String(); v != "kamsta" {
		t.Fatalf("String = %q", v)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}
	if r.Len() != 0 {
		t.Fatalf("Len = %d", r.Len())
	}
}

func TestReaderBytesOversized(t *testing.T) {
	b := AppendUvarint(nil, 1000) // declares 1000 bytes, supplies 2
	b = append(b, 1, 2)
	r := NewReader(b)
	if v := r.Bytes(); v != nil {
		t.Fatalf("Bytes = %v", v)
	}
	if !errors.Is(r.Err(), ErrOversized) {
		t.Fatalf("Err = %v", r.Err())
	}
}

// FuzzFrameRoundTrip drives the frame layer both ways: any (kind, payload)
// written must read back identically, and reading arbitrary bytes must
// either produce a well-formed frame or fail with a typed error — never a
// panic or an over-allocation.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint8(1), []byte(nil))
	f.Add(uint8(0), []byte{})
	f.Add(uint8(3), []byte("step payload"))
	f.Add(uint8(0xff), bytes.Repeat([]byte{7}, 300))
	// Raw wire bytes doubling as the payload of a round trip and, decoded
	// directly, as an adversarial stream.
	f.Add(uint8(2), AppendU32([]byte{}, 0xffffffff))
	f.Fuzz(func(t *testing.T, kind uint8, payload []byte) {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, kind, payload); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
		k, got, err := ReadFrame(&buf, nil)
		if err != nil {
			t.Fatalf("ReadFrame after WriteFrame: %v", err)
		}
		if k != kind || !bytes.Equal(got, payload) {
			t.Fatalf("round trip: kind %d/%d, %d/%d bytes", k, kind, len(got), len(payload))
		}

		// Treat the payload itself as a hostile wire stream: must terminate
		// with io.EOF or a typed/io error, never panic.
		r := bytes.NewReader(payload)
		for {
			_, _, err := ReadFrame(r, nil)
			if err != nil {
				if err != io.EOF &&
					!errors.Is(err, ErrTruncated) && !errors.Is(err, ErrOversized) {
					t.Fatalf("hostile stream: unexpected error %v", err)
				}
				break
			}
		}
	})
}

// FuzzReaderPayload feeds arbitrary bytes through every Reader accessor in a
// data-driven order: decoding must never panic and the sticky error must be
// one of the typed wire errors.
func FuzzReaderPayload(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendString(AppendU64(nil, 9), "x"))
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		for i := 0; r.Err() == nil && r.Len() > 0 && i < 1024; i++ {
			switch i % 7 {
			case 0:
				r.U8()
			case 1:
				r.U32()
			case 2:
				r.U64()
			case 3:
				r.F64()
			case 4:
				r.Uvarint()
			case 5:
				r.Bytes()
			case 6:
				_ = r.String()
			}
		}
		if err := r.Err(); err != nil {
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrOversized) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped error: %v", err)
			}
		}
	})
}
