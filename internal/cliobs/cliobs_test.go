package cliobs

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"kamsta"
)

func TestParsePEs(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []int
	}{
		{"4", []int{4}},
		{"1,3,4,8", []int{1, 3, 4, 8}},
		{" 2 , 16 ,", []int{2, 16}},
		{"", nil},
		{",", nil},
		{"0", nil},
		{"-4", nil},
		{"4,x", nil},
		{"2.5", nil},
	} {
		got, err := ParsePEs(tc.in)
		if (err == nil) != (tc.want != nil) || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParsePEs(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
}

func TestParseDistributedAlgs(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []kamsta.Algorithm
		ok   bool
	}{
		{"", nil, true}, // the caller's default set
		{"boruvka", []kamsta.Algorithm{kamsta.AlgBoruvka}, true},
		{"FilterBoruvka, mndmst", []kamsta.Algorithm{kamsta.AlgFilterBoruvka, kamsta.AlgMNDMST}, true},
		{"boruvka,kruskal", nil, false}, // the oracle is not a distributed algorithm
		{"prim", nil, false},
	} {
		got, err := ParseDistributedAlgs(tc.in)
		if (err == nil) != tc.ok || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseDistributedAlgs(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

// TestExitCode pins the one exit-status mapping of the six commands. A
// usage error wins over whatever it wraps; an interrupt is recognised
// through the wrapping a job error or a harness adds.
func TestExitCode(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want int
	}{
		{nil, 0},
		{errors.New("3 of 288 checks failed"), 1},
		{context.DeadlineExceeded, 1},
		{Usagef("bad -ps: %v", errors.New("empty list")), 2},
		{Usagef("%w", context.Canceled), 2},
		{fmt.Errorf("mstgen: %w", Usagef("bad -p 0")), 2},
		{context.Canceled, 130},
		{fmt.Errorf("oracle failed on g.kg: %w", context.Canceled), 130},
	} {
		if got := ExitCode(tc.err); got != tc.want {
			t.Errorf("ExitCode(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

// TestSweepScale: the sweep block resolves into the harness half of a
// bench.Scale, and a bad list is a usage error before any world exists.
// RegisterSweep declares on the process-wide flag set, so it runs once.
func TestSweepScale(t *testing.T) {
	f := RegisterSweep(1, 3, 4, 8)
	s, algs, err := f.Scale()
	if err != nil || !reflect.DeepEqual(s.Ps, []int{1, 3, 4, 8}) || algs != nil || s.Timeout != 0 {
		t.Fatalf("default sweep: %+v, %v, %v", s, algs, err)
	}
	f.ps, f.algs, f.tp.workers = "2,16", "boruvka", "a:1, b:2"
	s, algs, err = f.Scale()
	if err != nil || !reflect.DeepEqual(s.Ps, []int{2, 16}) || !reflect.DeepEqual(s.Workers, []string{"a:1", "b:2"}) ||
		!reflect.DeepEqual(algs, []kamsta.Algorithm{kamsta.AlgBoruvka}) {
		t.Fatalf("sweep: %+v, %v, %v", s, algs, err)
	}
	for _, bad := range [][2]string{{"0", ""}, {"4", "kruskal"}} {
		f.ps, f.algs = bad[0], bad[1]
		if _, _, err := f.Scale(); ExitCode(err) != 2 {
			t.Errorf("-ps %q -alg %q: %v, want a usage error", bad[0], bad[1], err)
		}
	}
}
