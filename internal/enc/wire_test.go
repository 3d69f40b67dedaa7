package enc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
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
	hdr := binary.LittleEndian.AppendUint32(nil, 0xffffffff)
	hdr = append(hdr, 1)
	if _, _, err := ReadFrame(bytes.NewReader(hdr), nil); !errors.Is(err, ErrOversized) {
		t.Fatalf("oversized prefix: %v", err)
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
	f.Add(uint8(2), binary.LittleEndian.AppendUint32([]byte{}, 0xffffffff))
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
