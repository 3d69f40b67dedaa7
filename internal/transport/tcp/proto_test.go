package tcp

import (
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"kamsta/internal/enc"
	"kamsta/internal/transport"
)

func TestHelloRoundTrip(t *testing.T) {
	want := hello{
		p: 16, lo: 4, hi: 10, threads: 3,
		alpha: 1e-6, beta: 2.5e-9, compute: 1e-9,
		wordSize: wordSize,
	}
	got, err := parseHello(appendHello(nil, want), wordSize)
	if err != nil {
		t.Fatalf("parseHello: %v", err)
	}
	if got != want {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
}

func TestHelloRejectsMismatch(t *testing.T) {
	base := hello{p: 8, lo: 4, hi: 8, threads: 1, wordSize: wordSize}
	cases := map[string][]byte{
		"truncated":  appendHello(nil, base)[:11],
		"bad block":  appendHello(nil, hello{p: 8, lo: 6, hi: 5, threads: 1, wordSize: wordSize}),
		"word size":  appendHello(nil, hello{p: 8, lo: 4, hi: 8, threads: 1, wordSize: wordSize + 1}),
		"bad magic":  append(enc.AppendU32(nil, 0xdeadbeef), appendHello(nil, base)[4:]...),
		"bad probe":  flipByte(appendHello(nil, base), 10),
		"version 7":  version7(appendHello(nil, base)),
		"empty":      nil,
		"extra junk": append(appendHello(nil, base), 0xff),
	}
	for name, payload := range cases {
		if name == "extra junk" {
			// Trailing bytes after a well-formed hello are tolerated: the
			// frame length bounds the payload and future versions may append.
			if _, err := parseHello(payload, wordSize); err != nil {
				t.Errorf("%s: unexpected error %v", name, err)
			}
			continue
		}
		if _, err := parseHello(payload, wordSize); !errors.Is(err, ErrHandshake) {
			t.Errorf("%s: got %v, want ErrHandshake", name, err)
		}
	}
}

// version7 rewrites a handshake payload's protocol version to 7, whose POD
// job spec still carries the RHG exponent and locality mix.
func version7(b []byte) []byte {
	binary.LittleEndian.PutUint32(b[4:], 7)
	return b
}

func flipByte(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0xff
	return out
}

func TestWelcomeRoundTrip(t *testing.T) {
	if err := checkWelcome(appendWelcome(nil)); err != nil {
		t.Fatalf("checkWelcome: %v", err)
	}
	if err := checkWelcome(nil); !errors.Is(err, ErrHandshake) {
		t.Fatalf("empty welcome: got %v, want ErrHandshake", err)
	}
	if err := checkWelcome(appendWelcome(nil)[:7]); !errors.Is(err, ErrHandshake) {
		t.Fatalf("short welcome: got %v, want ErrHandshake", err)
	}
	if err := checkWelcome(version7(appendWelcome(nil))); !errors.Is(err, ErrHandshake) {
		t.Fatalf("version-7 welcome: got %v, want ErrHandshake", err)
	}
}

func TestFlagsRoundTrip(t *testing.T) {
	cases := []transport.Flags{
		{},
		{Cancel: true},
		{Abort: true},
		{Cancel: true, Abort: true, Faults: []transport.RemoteFault{
			{Kind: 2, Rank: 5, Superstep: 99, Round: 3, Phase: "contract", Panic: "boom", Stack: "goroutine 7\n..."},
			{Kind: 1, Rank: 0, Superstep: 1, Round: 0, Phase: "", Panic: "", Stack: ""},
		}},
	}
	for i, want := range cases {
		r := enc.NewReader(appendFlags(nil, want))
		got, err := readFlags(r)
		if err != nil {
			t.Fatalf("case %d: readFlags: %v", i, err)
		}
		if got.Cancel != want.Cancel || got.Abort != want.Abort || !reflect.DeepEqual(got.Faults, want.Faults) {
			t.Fatalf("case %d: got %+v, want %+v", i, got, want)
		}
		if r.Len() != 0 {
			t.Fatalf("case %d: %d bytes left over", i, r.Len())
		}
	}
}

func TestFlagsRejectsOversizedFaultCount(t *testing.T) {
	// A fault count exceeding the remaining payload must fail fast instead
	// of looping (each fault occupies well over one byte).
	b := enc.AppendU8(nil, 0)
	b = enc.AppendUvarint(b, 1<<40)
	if _, err := readFlags(enc.NewReader(b)); !errors.Is(err, enc.ErrOversized) {
		t.Fatalf("got %v, want ErrOversized", err)
	}
}

func TestSlotRoundTrip(t *testing.T) {
	cd := enc.CodecFor[[]int64]()
	want := transport.Deposit{Tag: 7, Clock: 1.25, Val: []int64{3, -4, 5}, Codec: cd}
	var got transport.Deposit
	r := enc.NewReader(appendSlot(nil, &want))
	raw, present, err := readSlot(r, &got, cd)
	if err != nil || !present {
		t.Fatalf("readSlot: present=%v err=%v", present, err)
	}
	if got.Tag != want.Tag || got.Clock != want.Clock || !reflect.DeepEqual(got.Val, want.Val) {
		t.Fatalf("got %+v, want %+v", got, want)
	}

	// Relay: re-frame the raw view without the codec and decode again — the
	// leader forwards worker slots this way.
	var relayed transport.Deposit
	r2 := enc.NewReader(appendRawSlot(nil, &got, raw, present))
	if _, _, err := readSlot(r2, &relayed, cd); err != nil {
		t.Fatalf("relayed readSlot: %v", err)
	}
	if !reflect.DeepEqual(relayed.Val, want.Val) || relayed.Tag != want.Tag || relayed.Clock != want.Clock {
		t.Fatalf("relayed %+v, want %+v", relayed, want)
	}
}

func TestSlotAbsentAndNilCodec(t *testing.T) {
	// Valueless deposits (barriers, drains) travel as absent.
	var got transport.Deposit
	r := enc.NewReader(appendSlot(nil, &transport.Deposit{Tag: 3, Clock: 2}))
	if _, present, err := readSlot(r, &got, nil); err != nil || present {
		t.Fatalf("absent slot: present=%v err=%v", present, err)
	}
	if got.Val != nil || got.Tag != 3 || got.Clock != 2 {
		t.Fatalf("absent slot decoded to %+v", got)
	}

	// A present payload read with a nil codec (receiver deposited none) is
	// skipped, not decoded.
	cd := enc.CodecFor[[]int64]()
	src := transport.Deposit{Tag: 9, Clock: 4, Val: []int64{1}, Codec: cd}
	r = enc.NewReader(appendSlot(nil, &src))
	raw, present, err := readSlot(r, &got, nil)
	if err != nil || !present || raw == nil {
		t.Fatalf("nil-codec read: raw=%v present=%v err=%v", raw, present, err)
	}
	if got.Val != nil {
		t.Fatalf("nil-codec read decoded a value: %+v", got.Val)
	}
}

func TestSlotRejectsCorruption(t *testing.T) {
	cd := enc.CodecFor[[]int64]()
	good := appendSlot(nil, &transport.Deposit{Tag: 1, Clock: 1, Val: []int64{42}, Codec: cd})
	var d transport.Deposit
	if _, _, err := readSlot(enc.NewReader(good[:5]), &d, cd); err == nil {
		t.Fatal("truncated slot accepted")
	}
	bad := append([]byte(nil), good...)
	bad[12] = 7 // presence flag: not 0 or 1
	if _, _, err := readSlot(enc.NewReader(bad), &d, cd); !errors.Is(err, enc.ErrCorrupt) {
		t.Fatalf("bad presence flag: got %v, want ErrCorrupt", err)
	}
}
