package arena

import "testing"

func TestGrabReusesCapacity(t *testing.T) {
	a := New()
	k := NewKey()
	s1 := Grab[int](a, k, 100)
	for i := range s1 {
		s1[i] = i
	}
	p1 := &s1[0]
	s2 := Grab[int](a, k, 50)
	if &s2[0] != p1 {
		t.Fatal("Grab with smaller n reallocated")
	}
	if len(s2) != 50 {
		t.Fatalf("len = %d, want 50", len(s2))
	}
	// Growth reallocates, then stabilizes.
	s3 := Grab[int](a, k, 1000)
	if len(s3) != 1000 {
		t.Fatalf("len = %d, want 1000", len(s3))
	}
	s4 := Grab[int](a, k, 900)
	if &s4[0] != &s3[0] {
		t.Fatal("Grab after growth reallocated")
	}
}

func TestGrabZeroed(t *testing.T) {
	a := New()
	k := NewKey()
	s := Grab[int](a, k, 10)
	for i := range s {
		s[i] = 7
	}
	z := GrabZeroed[int](a, k, 10)
	for i, v := range z {
		if v != 0 {
			t.Fatalf("z[%d] = %d, want 0", i, v)
		}
	}
}

func TestGrabAppendKeep(t *testing.T) {
	a := New()
	k := NewKey()
	s := GrabAppend[int](a, k)
	for i := 0; i < 500; i++ {
		s = append(s, i)
	}
	Keep(a, k, s)
	s2 := GrabAppend[int](a, k)
	if cap(s2) < 500 {
		t.Fatalf("Keep did not retain grown capacity: cap=%d", cap(s2))
	}
	if len(s2) != 0 {
		t.Fatalf("GrabAppend returned non-empty slice: len=%d", len(s2))
	}
}

func TestDistinctKeysAndTypes(t *testing.T) {
	a := New()
	k1, k2 := NewKey(), NewKey()
	if k1 == k2 {
		t.Fatal("NewKey returned duplicate keys")
	}
	i := Grab[int](a, k1, 4)
	f := Grab[float64](a, k2, 4)
	i[0], f[0] = 1, 2.5
	if i[0] != 1 || f[0] != 2.5 {
		t.Fatal("slots interfere")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("reusing a key with a different type must panic")
		}
	}()
	Grab[string](a, k1, 1)
}

// TestGrabSizesEmptySlotExactly: the first request of a slot is taken as its
// steady-state size (no slack held for the life of the world); only a slot
// that has to grow is given room to grow further.
func TestGrabSizesEmptySlotExactly(t *testing.T) {
	a := New()
	k := NewKey()
	if s := Grab[int64](a, k, 1000); cap(s) != 1000 {
		t.Fatalf("first Grab(1000) has cap %d, want exactly 1000", cap(s))
	}
	if s := Grab[int64](a, k, 400); cap(s) != 1000 {
		t.Fatalf("smaller Grab reallocated: cap %d", cap(s))
	}
	if s := Grab[int64](a, k, 1001); cap(s) < 1500 {
		t.Fatalf("growing Grab(1001) has cap %d, want slack for further growth", cap(s))
	}
	if _, bytes := a.Footprint(); bytes < 1500*8 {
		t.Fatalf("footprint %d after growth", bytes)
	}
	if s := Grab[int64](a, NewKey(), 0); len(s) != 0 {
		t.Fatalf("Grab(0) returned %d elements", len(s))
	}
}

// TestForType: one value per element type, made once, and a warm lookup
// allocates nothing — the collectives call it on every superstep.
func TestForType(t *testing.T) {
	var r Registry
	made := 0
	mk := func() Key { made++; return NewKey() }
	a, b := ForType[int](&r, mk), ForType[string](&r, mk)
	if a == b || made != 2 {
		t.Fatalf("two types share key %d, or %d values made", a, made)
	}
	if ForType[int](&r, mk) != a || made != 2 {
		t.Fatal("a registered type got a new value")
	}
	if n := testing.AllocsPerRun(100, func() { ForType[int](&r, NewKey) }); n != 0 {
		t.Fatalf("warm lookup allocates %v times", n)
	}
}
