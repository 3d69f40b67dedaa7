package enc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"testing"
)

// podEdge mirrors the shape of the repo's POD deposit types (graph.Edge,
// dsort keys): unexported fixed-size fields, no pointers.
type podEdge struct {
	u, v uint32
	w    float64
}

type podNested struct {
	e   podEdge
	arr [3]int16
	ok  bool
}

// walked exercises every shape the walker serves: string, slice, pointer,
// struct, a validated bool, and POD subtrees (a scalar, a struct with
// unexported fields) copied raw. Its own fields must be exported.
type walked struct {
	Name   string
	Vals   []float64
	Edges  []podEdge // POD elements: one bulk copy
	Ptr    *int64
	Flag   bool
	Pod    podEdge
	Nested struct {
		A int32
		B string
	}
}

func roundTrip[T any](t *testing.T, v T) T {
	t.Helper()
	cd := CodecFor[T]()
	b := cd.Append(nil, v)
	got, rest, err := cd.Decode(b)
	if err != nil {
		t.Fatalf("Decode(%v): %v", v, err)
	}
	if len(rest) != 0 {
		t.Fatalf("Decode(%v): %d bytes left over", v, len(rest))
	}
	out, ok := got.(T)
	if !ok {
		t.Fatalf("Decode(%v): got %T", v, got)
	}
	return out
}

func TestCodecPODRoundTrip(t *testing.T) {
	if got := roundTrip(t, int(-42)); got != -42 {
		t.Fatalf("int: %d", got)
	}
	if got := roundTrip(t, math.Inf(-1)); math.Float64bits(got) != math.Float64bits(math.Inf(-1)) {
		t.Fatalf("float: %v", got)
	}
	// NaN payload bits must survive exactly (clock parity depends on it).
	weird := math.Float64frombits(0x7ff8dead_beef0001)
	if got := roundTrip(t, weird); math.Float64bits(got) != 0x7ff8dead_beef0001 {
		t.Fatalf("nan bits: %x", math.Float64bits(got))
	}
	e := podEdge{u: 7, v: 9, w: 3.25}
	if got := roundTrip(t, e); got != e {
		t.Fatalf("podEdge: %+v", got)
	}
	n := podNested{e: e, arr: [3]int16{-1, 0, 1}, ok: true}
	if got := roundTrip(t, n); got != n {
		t.Fatalf("podNested: %+v", got)
	}
}

func TestCodecWalkerRoundTrip(t *testing.T) {
	x := int64(99)
	v := walked{
		Name:  "phase",
		Vals:  []float64{1.5, math.Pi},
		Edges: []podEdge{{1, 2, 0.5}, {3, 4, 1.5}},
		Ptr:   &x,
		Flag:  true,
		Pod:   podEdge{u: 5, v: 6, w: -2.5},
	}
	v.Nested.A = -3
	v.Nested.B = "inner"
	got := roundTrip(t, v)
	if !reflect.DeepEqual(got, v) {
		t.Fatalf("walked:\n got %+v\nwant %+v", got, v)
	}

	// Nil slice and nil pointer are distinguishable from empty/zero.
	var z walked
	got = roundTrip(t, z)
	if got.Vals != nil || got.Ptr != nil || got.Edges != nil {
		t.Fatalf("zero walked: %+v", got)
	}
	z.Vals = []float64{}
	got = roundTrip(t, z)
	if got.Vals == nil || len(got.Vals) != 0 {
		t.Fatalf("empty slice: %+v", got)
	}
}

func TestCodecSliceRoundTrip(t *testing.T) {
	if got := roundTrip(t, []int32{1, -2, 3}); !reflect.DeepEqual(got, []int32{1, -2, 3}) {
		t.Fatalf("[]int32: %v", got)
	}
	if got := roundTrip(t, []string{"a", "", "c"}); !reflect.DeepEqual(got, []string{"a", "", "c"}) {
		t.Fatalf("[]string: %v", got)
	}
}

// TestCodecPODNestedIsTopLevel pins the one codec rule: a POD value has the
// same bytes deposited on its own and nested in a walked struct — its memory
// image, no per-field widening.
func TestCodecPODNestedIsTopLevel(t *testing.T) {
	type outer struct {
		Name string
		Pod  podEdge
		N    int32
	}
	e := podEdge{u: 7, v: 9, w: 3.25}
	top := CodecFor[podEdge]().Append(nil, e)
	if len(top) != 16 {
		t.Fatalf("top-level podEdge is %d bytes, want its 16-byte memory image", len(top))
	}
	want := []byte{1, 'x'} // uvarint length, then the string's bytes
	want = append(want, top...)
	want = binary.LittleEndian.AppendUint32(want, 0xfffffffe) // int32(-2): 4 raw bytes
	got := CodecFor[outer]().Append(nil, outer{Name: "x", Pod: e, N: -2})
	if !bytes.Equal(got, want) {
		t.Fatalf("nested POD:\n got %x\nwant %x", got, want)
	}
	// The []POD layout: non-nil flag, uvarint count, the elements' memory.
	want = append([]byte{1, 2}, top...)
	want = append(want, top...)
	if got := CodecFor[[]podEdge]().Append(nil, []podEdge{e, e}); !bytes.Equal(got, want) {
		t.Fatalf("[]POD:\n got %x\nwant %x", got, want)
	}
}

func TestCodecCached(t *testing.T) {
	if CodecFor[podEdge]() != CodecFor[podEdge]() {
		t.Fatal("codec not cached")
	}
}

func TestCodecUnencodablePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("map", func() { CodecFor[map[string]int]() })
	mustPanic("chan", func() { CodecFor[chan int]() })
	mustPanic("func", func() { CodecFor[func()]() })
	type badUnexported struct {
		s string // unexported non-POD field forces the reflect path
	}
	mustPanic("unexported", func() { CodecFor[badUnexported]() })
	_ = badUnexported{s: ""}
	// Shapes the walker no longer serves: only POD arrays exist on the wire.
	mustPanic("array of strings", func() { CodecFor[[2]string]() })
	mustPanic("array field", func() { CodecFor[struct{ A [2][]int }]() })
	mustPanic("interface field", func() { CodecFor[struct{ V any }]() })
}

func TestCodecDecodeMalformed(t *testing.T) {
	cd := CodecFor[walked]()
	good := cd.Append(nil, walked{Name: "x", Vals: []float64{1}})
	// Every strict prefix must fail with a typed error, never panic.
	for i := 0; i < len(good); i++ {
		_, _, err := cd.Decode(good[:i])
		if err == nil {
			continue // prefix happens to decode: acceptable only with leftovers consumed
		}
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrOversized) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("prefix %d: untyped error %v", i, err)
		}
	}
	// Flag bytes other than 0/1 are corrupt, wherever they stand.
	for name, decode := range map[string]func([]byte) error{
		"bool": func(b []byte) error {
			_, _, err := CodecFor[struct {
				S string
				B bool
			}]().Decode(append([]byte{0}, b...))
			return err
		},
		"slice":   func(b []byte) error { _, _, err := CodecFor[[]string]().Decode(b); return err },
		"pointer": func(b []byte) error { _, _, err := CodecFor[*podEdge]().Decode(b); return err },
	} {
		if err := decode([]byte{2}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s flag 2: %v", name, err)
		}
		if err := decode(nil); !errors.Is(err, ErrTruncated) {
			t.Fatalf("%s flag missing: %v", name, err)
		}
	}
	// A nested POD cut short is truncated, like a top-level one.
	if _, _, err := CodecFor[*podEdge]().Decode(append([]byte{1}, make([]byte, 15)...)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short nested POD: %v", err)
	}
	// A corrupt element count must be rejected before allocation.
	b := []byte{1} // non-nil slice
	b = binary.AppendUvarint(b, 1<<40)
	_, _, err := CodecFor[[]float64]().Decode(b)
	if !errors.Is(err, ErrOversized) {
		t.Fatalf("huge count: %v", err)
	}
	_, _, err = CodecFor[[]string]().Decode(b)
	if !errors.Is(err, ErrOversized) {
		t.Fatalf("huge count (walker): %v", err)
	}
}

// TestCodecInPlace: a value and a pointer to it encode to the same bytes,
// and decoding into a reused target yields exactly the new value — shorter
// and longer slices, a nil slice after a full one, a nil pointer after a
// set one — while a target with the room keeps its arrays. Neither side
// allocates for a POD value or, once the target is warm, a []POD.
func TestCodecInPlace(t *testing.T) {
	n := int64(9)
	vals := []walked{
		{Name: "a", Vals: []float64{1, 2, 3}, Edges: []podEdge{{1, 2, 3}}, Ptr: &n, Flag: true},
		{Name: "bb", Vals: []float64{4}, Edges: nil, Ptr: nil, Pod: podEdge{4, 5, 6}},
		{Vals: []float64{}, Edges: []podEdge{{7, 8, 9}, {1, 1, 1}}, Ptr: &n},
	}
	cd := CodecFor[walked]()
	target := cd.New().(*walked)
	for i := range vals {
		b := cd.Append(nil, vals[i])
		if pb := cd.Append(nil, &vals[i]); !bytes.Equal(b, pb) {
			t.Fatalf("value %d: %x by value, %x by pointer", i, b, pb)
		}
		rest, err := cd.DecodeInto(b, target)
		if err != nil || len(rest) != 0 {
			t.Fatalf("value %d: %v, %d bytes left", i, err, len(rest))
		}
		if !reflect.DeepEqual(*target, vals[i]) {
			t.Fatalf("value %d: decoded %+v, want %+v", i, *target, vals[i])
		}
	}
	arr := &target.Vals[:1][0]
	if _, err := cd.DecodeInto(cd.Append(nil, &vals[1]), target); err != nil || &target.Vals[0] != arr {
		t.Fatalf("a target with the room got a new array (%v)", err)
	}

	pc, e := CodecFor[podEdge](), podEdge{1, 2, 3}
	var got podEdge
	buf := make([]byte, 0, 64)
	sc, xs := CodecFor[[]podEdge](), make([]podEdge, 100)
	var dst []podEdge
	if _, err := sc.DecodeInto(sc.Append(nil, &xs), &dst); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(20, func() {
		buf = pc.Append(buf[:0], &e)
		if _, err := pc.DecodeInto(buf, &got); err != nil || got != e {
			t.Fatalf("POD round trip: %v %v", got, err)
		}
		buf = sc.Append(buf[:0], &xs)
		if _, err := sc.DecodeInto(buf, &dst); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("warm in-place round trips made %v allocations, want 0", a)
	}
}

// TestCodecStringOversized: a string length beyond the remaining bytes is
// refused before the string is built.
func TestCodecStringOversized(t *testing.T) {
	b := binary.AppendUvarint(nil, 1000) // declares 1000 bytes, supplies 2
	b = append(b, 1, 2)
	if _, _, err := CodecFor[string]().Decode(b); !errors.Is(err, ErrOversized) {
		t.Fatalf("got %v, want ErrOversized", err)
	}
}

// FuzzCodecDecode feeds arbitrary bytes to codecs covering every shape the
// walker serves, into fresh values and into targets reused across inputs:
// decoding must return a value or a typed error — no panics, no unbounded
// allocation.
func FuzzCodecDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(CodecFor[walked]().Append(nil, walked{Name: "seed", Vals: []float64{1, 2}}))
	f.Add(CodecFor[podNested]().Append(nil, podNested{ok: true}))
	codecs := []*Codec{CodecFor[walked](), CodecFor[podNested](), CodecFor[[]podEdge](), CodecFor[[]string]()}
	targets := make([]any, len(codecs)) // reused across inputs, as a receiver's are
	for i, cd := range codecs {
		targets[i] = cd.New()
	}
	typed := func(t *testing.T, cd *Codec, err error) {
		if err != nil &&
			!errors.Is(err, ErrTruncated) && !errors.Is(err, ErrOversized) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: untyped error %v", cd.Name(), err)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for i, cd := range codecs {
			_, _, err := cd.Decode(data)
			typed(t, cd, err)
			_, err = cd.DecodeInto(data, targets[i])
			typed(t, cd, err)
		}
	})
}
