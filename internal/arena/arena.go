// Package arena provides per-PE scratch memory that is recycled across
// Borůvka rounds and across jobs: grow-only typed slices owned by the
// persistent world (one Arena per simulated PE, see comm.Comm.Scratch).
//
// The hot per-round tables of the MST algorithms — the dense vertex rename
// table, parent/emit/label arrays, all-to-all send frames — live in these
// slots, so a steady-state round performs no vertex-bookkeeping allocation:
// each round re-grabs the same slots, which only reallocate while the
// working set is still growing. Resetting is explicit — Grab returns
// unspecified contents and the caller writes every entry it reads (or uses
// GrabZeroed when an absent-marker fill is the natural initialization).
//
// Concurrency: an Arena must only be used by the goroutine of the PE that
// owns it. The world hands rank r's arena to whichever goroutine runs rank
// r's share of a job; jobs are serialized, so successive uses are ordered by
// the job dispatch's happens-before edges.
//
// Slots handed to collectives follow comm's one ownership rule: a slot
// another PE may read (a send frame, a pair exchange's payload) is not
// written or re-grabbed until one further collective after the exchange has
// returned, and what a PE receives, another PE's slot, it reads only until
// its own next collective.
package arena

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
)

// Key identifies one typed slot of an Arena. Allocate keys once at package
// init with NewKey; a key may be used with any Arena but always with the
// same element type.
type Key int32

var nextKey atomic.Int32

// NewKey reserves a fresh slot key, distinct from every other key in the
// process.
func NewKey() Key { return Key(nextKey.Add(1) - 1) }

// Registry maps element types to what a generic call site keeps per type —
// typically the keys of the slots one instantiation uses. The zero value is
// ready; declare one per call site as a package variable.
type Registry struct{ m sync.Map }

// ForType returns r's value for element type T, made by mk on T's first
// lookup. A nil *T boxed as an interface carries the type without
// reflection and without allocating, so a warm lookup is one lock-free read
// that allocates nothing.
func ForType[T, V any](r *Registry, mk func() V) V {
	id := any((*T)(nil))
	v, ok := r.m.Load(id)
	if !ok {
		v, _ = r.m.LoadOrStore(id, mk())
	}
	return v.(V)
}

// Arena is a set of grow-only typed scratch slots, one per Key.
type Arena struct {
	slots []any // slots[key] holds a *[]T, lazily created
}

// New returns an empty arena.
func New() *Arena { return &Arena{} }

// slot returns the *[]T backing k, creating it on first use. The element
// type of a key is fixed by its first use; mixing types panics with a
// diagnostic rather than corrupting memory.
func slot[T any](a *Arena, k Key) *[]T {
	if int(k) >= len(a.slots) {
		grown := make([]any, int(k)+1)
		copy(grown, a.slots)
		a.slots = grown
	}
	s := a.slots[k]
	if s == nil {
		p := new([]T)
		a.slots[k] = p
		return p
	}
	p, ok := s.(*[]T)
	if !ok {
		panic(fmt.Sprintf("arena: key %d used with two element types (%T vs requested)", k, s))
	}
	return p
}

// Grab returns a slice of length n in slot k, reusing the slot's capacity.
// Contents are unspecified (they are whatever the previous user left);
// callers must write every element they read. Grabbing a slot invalidates
// the slice returned by its previous Grab. An empty slot is sized exactly —
// the first request of a job shape is its steady state, and most tables
// only shrink over the rounds — and a slot that has to grow gets half again.
func Grab[T any](a *Arena, k Key, n int) []T {
	p := slot[T](a, k)
	if cap(*p) == 0 && n > 0 {
		*p = make([]T, n)
	} else if cap(*p) < n {
		*p = make([]T, n+n/2+8)
	}
	s := (*p)[:n]
	*p = s
	return s
}

// GrabZeroed is Grab with every element set to T's zero value.
func GrabZeroed[T any](a *Arena, k Key, n int) []T {
	s := Grab[T](a, k, n)
	clear(s) // a memclr, which a loop storing a type parameter's zero is not
	return s
}

// GrabAppend returns a zero-length slice in slot k with the slot's full
// grown capacity, for append-style filling.
func GrabAppend[T any](a *Arena, k Key) []T {
	p := slot[T](a, k)
	return (*p)[:0]
}

// Keep stores s back into slot k so its grown capacity (from appends beyond
// the grabbed capacity) is retained for the next Grab.
func Keep[T any](a *Arena, k Key, s []T) {
	p := slot[T](a, k)
	*p = s
}

// Footprint reports the number of live slots and the total bytes of backing
// capacity they hold. It walks the slots with reflection — a cold-path
// accounting method for metrics and diagnostics, never called from algorithm
// hot paths (the hot paths stay reflection- and allocation-free).
func (a *Arena) Footprint() (slots int, bytes int64) {
	for _, s := range a.slots {
		if s == nil {
			continue
		}
		slots++
		v := reflect.ValueOf(s).Elem() // *[]T -> []T
		bytes += int64(v.Cap()) * int64(v.Type().Elem().Size())
	}
	return slots, bytes
}
