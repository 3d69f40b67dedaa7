package tcp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"kamsta/internal/enc"
	"kamsta/internal/transport"
)

// helloBytes encodes a HELLO for the block [lo, hi) of p ranks.
func helloBytes(p, lo, hi int, word uint8) []byte {
	return helloCodec.Append(nil, hello{ours, word, Handshake{P: p, Lo: lo, Hi: hi, Threads: 1}})
}

func TestHelloRoundTrip(t *testing.T) {
	want := Handshake{
		P: 16, Lo: 4, Hi: 10, Threads: 3,
		Alpha: 1e-6, Beta: 2.5e-9, Compute: 1e-9,
	}
	got, err := parseHello(helloCodec.Append(nil, hello{ours, wordSize, want}))
	if err != nil {
		t.Fatalf("parseHello: %v", err)
	}
	if got != want {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
}

func TestHelloRejectsMismatch(t *testing.T) {
	base := helloBytes(8, 4, 8, wordSize)
	badMagic := append([]byte(nil), base...)
	binary.LittleEndian.PutUint32(badMagic, 0xdeadbeef)
	cases := map[string][]byte{
		"truncated":  base[:11],
		"bad block":  helloBytes(8, 6, 5, wordSize),
		"word size":  helloBytes(8, 4, 8, wordSize+1),
		"bad magic":  badMagic,
		"bad probe":  flipByte(base, 10),
		"version 7":  version7(helloBytes(8, 4, 8, wordSize)),
		"empty":      nil,
		"extra junk": append(helloBytes(8, 4, 8, wordSize), 0xff),
	}
	for name, payload := range cases {
		if name == "extra junk" {
			// Trailing bytes after a well-formed hello are tolerated: the
			// frame length bounds the payload and future versions may append.
			if _, err := parseHello(payload); err != nil {
				t.Errorf("%s: unexpected error %v", name, err)
			}
			continue
		}
		if _, err := parseHello(payload); !errors.Is(err, ErrHandshake) {
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

func welcome() []byte { return preambleCodec.Append(nil, ours) }

func TestWelcomeRoundTrip(t *testing.T) {
	if err := checkPreamble(welcome()); err != nil {
		t.Fatalf("checkPreamble: %v", err)
	}
	if err := checkPreamble(nil); !errors.Is(err, ErrHandshake) {
		t.Fatalf("empty welcome: got %v, want ErrHandshake", err)
	}
	if err := checkPreamble(welcome()[:7]); !errors.Is(err, ErrHandshake) {
		t.Fatalf("short welcome: got %v, want ErrHandshake", err)
	}
	if err := checkPreamble(version7(welcome())); !errors.Is(err, ErrHandshake) {
		t.Fatalf("version-7 welcome: got %v, want ErrHandshake", err)
	}
	// The HELLO starts with the same 16 bytes.
	if got := helloBytes(2, 1, 2, wordSize)[:16]; string(got) != string(welcome()) {
		t.Fatalf("HELLO starts %x, WELCOME is %x", got, welcome())
	}
}

// TestWelcomeNamesBothVersions: a worker refusing a HELLO answers with its
// own WELCOME, not an empty one, so the leader's error names both protocol
// versions rather than a truncated frame.
func TestWelcomeNamesBothVersions(t *testing.T) {
	err := checkPreamble(version7(welcome()))
	want := fmt.Sprintf("version 7, want %d", protoVersion)
	if !errors.Is(err, ErrHandshake) || !strings.Contains(err.Error(), want) {
		t.Fatalf("version-7 welcome: got %v, want ErrHandshake naming %q", err, want)
	}

	leader, worker := net.Pipe()
	defer leader.Close()
	defer worker.Close()
	refused := make(chan error, 1)
	go func() {
		_, _, err := AcceptFollower(worker, nil)
		refused <- err
	}()
	lk := newLink(leader, "pipe", nil)
	if err := lk.writeFrame(kHello, version7(helloBytes(2, 1, 2, wordSize)), time.Minute); err != nil {
		t.Fatalf("writing HELLO: %v", err)
	}
	kind, payload, err := lk.readFrame(time.Minute)
	if err != nil || kind != kWelcome {
		t.Fatalf("answer to a version-7 HELLO: kind %d, %v; want a WELCOME", kind, err)
	}
	if err := checkPreamble(payload); err != nil {
		t.Fatalf("the refusing worker's WELCOME is not its own: %v", err)
	}
	if err := <-refused; !errors.Is(err, ErrHandshake) {
		t.Fatalf("AcceptFollower on a version-7 HELLO: got %v, want ErrHandshake", err)
	}
}

// TestFlagsRoundTrip: a STEP head carries the epoch, both flags and every
// fault field through the codec.
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
	for i, fl := range cases {
		want := stepHead{Epoch: uint64(i) + 41, Flags: fl}
		got, rest, err := stepCodec.Decode(stepCodec.Append(nil, want))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: got %+v, want %+v", i, got, want)
		}
		if len(rest) != 0 {
			t.Fatalf("case %d: %d bytes left over", i, len(rest))
		}
	}
}

func TestFlagsRejectsOversizedFaultCount(t *testing.T) {
	// A fault count exceeding the remaining payload must fail fast instead
	// of looping or allocating (each fault occupies well over one byte).
	b := binary.LittleEndian.AppendUint64(nil, 1) // epoch
	b = append(b, 0, 0, 1)                        // cancel, abort, non-nil faults
	b = binary.AppendUvarint(b, 1<<40)
	if _, _, err := parseStep(b, nil, 0, 0, nil); !errors.Is(err, enc.ErrOversized) {
		t.Fatalf("got %v, want ErrOversized", err)
	}
}

func TestSlotRoundTrip(t *testing.T) {
	cd := enc.CodecFor[[]int64]()
	want := []transport.Deposit{
		{Tag: 7, Clock: 1.25, Val: []int64{3, -4, 5}},
		{Tag: 7, Clock: 0.5, Val: []int64{}},
	}
	var b []byte
	for i := range want {
		d := want[i]
		d.Codec = cd
		b = appendSlot(b, &d)
	}
	got := make([]transport.Deposit, 2)
	rest, err := readSlots(b, got, 0, 2, cd)
	if err != nil || len(rest) != 0 {
		t.Fatalf("readSlots: %d bytes left, %v", len(rest), err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	// Each slot is a 16-byte head, then its value's own codec encoding.
	if n := len(appendSlot(nil, &transport.Deposit{Tag: 1})); n != 16 {
		t.Fatalf("a valueless slot is %d bytes, want its 16-byte head", n)
	}
	val := cd.Append(nil, want[0].Val)
	d := want[0]
	d.Codec = cd
	if slot := appendSlot(nil, &d); string(slot[16:]) != string(val) {
		t.Fatalf("slot value bytes %x, want the codec's %x", slot[16:], val)
	}
}

func TestSlotAbsentAndNilCodec(t *testing.T) {
	// Valueless deposits (barriers, drains) travel as absent.
	got := make([]transport.Deposit, 1)
	rest, err := readSlots(appendSlot(nil, &transport.Deposit{Tag: 3, Clock: 2}), got, 0, 1, nil)
	if err != nil || len(rest) != 0 {
		t.Fatalf("absent slot: %d bytes left, %v", len(rest), err)
	}
	if got[0].Val != nil || got[0].Tag != 3 || got[0].Clock != 2 {
		t.Fatalf("absent slot decoded to %+v", got[0])
	}

	// A present value read with a nil codec (receiver deposited none) is
	// skipped, not decoded.
	cd := enc.CodecFor[[]int64]()
	src := transport.Deposit{Tag: 9, Clock: 4, Val: []int64{1}, Codec: cd}
	rest, err = readSlots(appendSlot(nil, &src), got, 0, 1, nil)
	if err != nil || len(rest) != 0 {
		t.Fatalf("nil-codec read: %d bytes left, %v", len(rest), err)
	}
	if got[0].Val != nil || got[0].Tag != 9 {
		t.Fatalf("nil-codec read decoded %+v", got[0])
	}
}

func TestSlotRejectsCorruption(t *testing.T) {
	cd := enc.CodecFor[[]int64]()
	good := appendSlot(nil, &transport.Deposit{Tag: 1, Clock: 1, Val: []int64{42}, Codec: cd})
	d := make([]transport.Deposit, 1)
	if _, err := readSlots(good[:5], d, 0, 1, cd); !errors.Is(err, enc.ErrTruncated) {
		t.Fatalf("truncated head: got %v, want ErrTruncated", err)
	}
	if _, err := readSlots(good[:len(good)-1], d, 0, 1, cd); !errors.Is(err, enc.ErrTruncated) {
		t.Fatalf("truncated value: got %v, want ErrTruncated", err)
	}
	bad := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(bad[4:], uint32(0xfffffff9)) // Len -7
	if _, err := readSlots(bad, d, 0, 1, cd); !errors.Is(err, enc.ErrCorrupt) {
		t.Fatalf("negative length: got %v, want ErrCorrupt", err)
	}
}

// FuzzFrameDecode feeds arbitrary bytes through every payload decoder of the
// protocol: HELLO, the preamble a WELCOME is, STEP (head and slot loop) and
// REPLY (verdict and slot loop), each with and without a value codec. Each
// must return a value or a typed error, never panic.
func FuzzFrameDecode(f *testing.F) {
	cd := enc.CodecFor[[]int64]()
	slot := func(d transport.Deposit) []byte { d.Codec = cd; return appendSlot(nil, &d) }
	f.Add(helloBytes(4, 1, 3, wordSize))
	f.Add(welcome())
	step := stepCodec.Append(nil, stepHead{Epoch: 9, Flags: transport.Flags{Abort: true,
		Faults: []transport.RemoteFault{{Kind: 1, Rank: 2, Phase: "contract", Panic: "boom"}}}})
	step = append(step, slot(transport.Deposit{Tag: 3, Clock: 1, Val: []int64{5, 6}})...)
	f.Add(append(step, slot(transport.Deposit{Tag: 3, Clock: 2})...))
	reply := verdictCodec.Append(nil, transport.VerdictRun)
	reply = append(reply, slot(transport.Deposit{Tag: 3, Clock: 1, Val: []int64{7}})...)
	f.Add(append(reply, slot(transport.Deposit{Tag: 3, Clock: 2, Val: []int64{}})...))
	f.Fuzz(func(t *testing.T, data []byte) {
		typed := func(what string, err error, allowed ...error) {
			if err == nil {
				return
			}
			for _, e := range append(allowed, enc.ErrTruncated, enc.ErrOversized, enc.ErrCorrupt) {
				if errors.Is(err, e) {
					return
				}
			}
			t.Fatalf("%s: untyped error %v", what, err)
		}
		_, err := parseHello(data)
		typed("HELLO", err, ErrHandshake)
		typed("WELCOME", checkPreamble(data), ErrHandshake)
		for _, c := range []*enc.Codec{cd, nil} {
			board := make([]transport.Deposit, 4)
			_, _, err = parseStep(data, board, 1, 3, c)
			typed("STEP", err)
			_, err = parseReply(data, board, 1, 3, c)
			typed("REPLY", err, ErrProtocol)
		}
	})
}
