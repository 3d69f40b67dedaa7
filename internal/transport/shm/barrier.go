package shm

import (
	"runtime"
	"sync/atomic"
)

// barrier is a reusable (cyclic) barrier for a fixed number of parties,
// built as a fan-in tree of atomic arrival counters released by a single
// epoch word. Arrival contention is spread over tree nodes (a central
// mutex+cond barrier pays lock contention and futex sleep/wake traffic that
// grow with p), release is one atomic increment that all waiters observe by
// polling, and waiters yield to the scheduler (runtime.Gosched) after a
// short bounded spin so worlds with far more PEs than cores make progress
// cooperatively instead of thrashing.
//
// Protocol: each arriving party increments its leaf node's counter. The
// party that completes a node (counter reaches arity) resets the counter and
// climbs to the parent; the party that completes the root increments the
// epoch, releasing everyone spinning on it. Counter resets are safe because
// they happen before the root increment, which in turn happens before any
// party can start the next round (it must first observe the new epoch), so
// next-round arrivals always find zeroed counters. All signalling goes
// through sync/atomic, which gives the happens-before edges that make plain
// writes before Wait visible to plain reads after Wait on every party.
type barrier struct {
	p     int
	spin  int
	yield int
	nodes []barrierNode
	epoch atomic.Uint64
	// doors[e%2] is a broadcast channel closed by epoch e's completer.
	// Parties whose spin+yield budget runs out block on it instead of
	// cycling through the scheduler; with many PEs per core this keeps the
	// run queue short while stragglers finish their pre-barrier work.
	doors [2]atomic.Value // of chan struct{}
	// parked[e%2] is set by a party before it parks on doors[e%2]. The
	// completer closes and re-arms a door only when it is set, so a
	// superstep in which nobody parked allocates no channel.
	parked [2]atomic.Bool
	// poisoned is the barrier's terminal state: once set (Poison), every
	// current and future Wait returns immediately with poisoned=true and
	// the counters/epoch are no longer coherent. Poisoning is the hard
	// fault-containment fallback for situations the cooperative
	// superstep-verdict protocol cannot resolve — a lost PE goroutine or a
	// stalled collective — after which the world must be rebuilt.
	poisoned atomic.Bool
	// poisonCh is closed by Poison so parties parked on a door wake up.
	poisonCh chan struct{}
}

// barrierFan is the tree fan-in: parties per leaf and children per inner
// node. 8 keeps the tree ≤ 3 levels up to p = 512 while spreading arrivals
// over p/8 cache lines.
const barrierFan = 8

// barrierSpin bounds the busy-wait before the first Gosched. It is kept
// small: when goroutines outnumber cores (the common case for large
// simulated worlds) spinning cannot observe progress until the scheduler
// runs another party, so yielding early is what keeps p ≥ 256 fast. On a
// single-proc runtime spinning can never observe progress at all, so the
// budget drops to zero there (decided once at barrier construction).
const barrierSpin = 32

// barrierYield bounds the Gosched attempts before a party parks on the
// epoch's door channel. Yielding is cheap when the barrier is about to
// complete, but every yield cycles the whole run queue; once a party has
// yielded this many times the other PEs are evidently still busy with
// pre-barrier work, and parking keeps the scheduler's queue short while
// they finish.
const barrierYield = 8

// barrierNode is one tree node, padded to a cache line so arrivals at
// different nodes never share a line.
type barrierNode struct {
	count  atomic.Int32
	arity  int32
	parent int32 // index into nodes; -1 at the root
	_      [52]byte
}

func newBarrier(p int) *barrier {
	b := &barrier{p: p, spin: barrierSpin, yield: barrierYield, poisonCh: make(chan struct{})}
	if runtime.GOMAXPROCS(0) == 1 {
		b.spin = 0
	}
	if p <= 1 {
		return b
	}
	b.doors[0].Store(make(chan struct{}))
	b.doors[1].Store(make(chan struct{}))
	// Level l has ceil(width/8) nodes over the previous level's width.
	var counts []int
	for w := p; ; {
		n := (w + barrierFan - 1) / barrierFan
		counts = append(counts, n)
		if n == 1 {
			break
		}
		w = n
	}
	offsets := make([]int, len(counts))
	total := 0
	for i, n := range counts {
		offsets[i] = total
		total += n
	}
	b.nodes = make([]barrierNode, total)
	w := p
	for l, n := range counts {
		for i := 0; i < n; i++ {
			node := &b.nodes[offsets[l]+i]
			arity := barrierFan
			if rest := w - i*barrierFan; rest < arity {
				arity = rest
			}
			node.arity = int32(arity)
			if n == 1 {
				node.parent = -1
			} else {
				node.parent = int32(offsets[l+1] + i/barrierFan)
			}
		}
		w = n
	}
	return b
}

// Wait blocks party li (a local party index in [0, parties)) until all
// parties arrive, then rearms for the next round. The party that completes
// the root — the last to arrive, once all arrivals have propagated up the
// tree — runs pre(li) with its OWN index (if pre is non-nil) BEFORE
// releasing anyone. At that moment every other party is still blocked
// inside Wait, so pre may freely read state the parties wrote before
// arriving and publish a combined result for all of them to read after
// release; this is what lets collectives reduce p deposits once instead of
// p times (see Substrate's completion hook).
//
// Wait reports whether the barrier was poisoned: a true return means the
// round did NOT complete (no combine ran, no coherent release happened)
// and the caller must unwind its job — the world is broken.
func (b *barrier) Wait(li int, pre func(int)) (poisoned bool) {
	if b.poisoned.Load() {
		return true
	}
	if b.p <= 1 {
		if pre != nil {
			pre(li)
		}
		return false
	}
	e := b.epoch.Load()
	ni := int32(li / barrierFan)
	for {
		n := &b.nodes[ni]
		if n.count.Add(1) != n.arity {
			break // not the last at this node: go wait for the release
		}
		n.count.Store(0)
		if n.parent < 0 {
			// Root completed: this party releases the world. Order
			// matters: the combine runs first (everyone is still blocked);
			// the epoch flip releases spinners AND must precede the door
			// close so that any party woken from the door — or released
			// any other way — loads the NEW epoch when it enters the next
			// round (a stale load would let the next round's release
			// condition fire prematurely); and only then is the door
			// re-armed for this parity's next use — a party that observes
			// the new door must already observe the flipped epoch
			// (sequentially consistent atomics), so it can never park on a
			// door nobody will close, and the next same-parity completer
			// cannot observe the old door because it can only run after
			// this PE passed the next barrier. A party parks only after
			// setting parked and then still reading epoch e, so either the
			// load below sees the flag or the party sees the flip.
			if pre != nil {
				pre(li)
			}
			door := b.doors[e&1].Load().(chan struct{})
			b.epoch.Add(1)
			if b.parked[e&1].Load() {
				b.parked[e&1].Store(false)
				close(door)
				b.doors[e&1].Store(make(chan struct{}))
			}
			return false
		}
		ni = n.parent
	}
	spins, yields := 0, 0
	for b.epoch.Load() == e {
		if b.poisoned.Load() {
			return true
		}
		switch {
		case spins < b.spin:
			spins++
		case yields < b.yield:
			yields++
			runtime.Gosched()
		default:
			// Park. The door was loaded while the epoch still read e, so
			// it is this epoch's door (see the completer's ordering) and
			// its close is guaranteed — unless the barrier is poisoned, in
			// which case poisonCh wakes the parked party instead.
			b.parked[e&1].Store(true)
			door := b.doors[e&1].Load().(chan struct{})
			if b.epoch.Load() != e {
				return false
			}
			select {
			case <-door:
				return false
			case <-b.poisonCh:
				return true
			}
		}
	}
	return false
}

// Poison permanently breaks the barrier: every party currently blocked in
// Wait — spinning, yielding, or parked on a door — returns with
// poisoned=true, and every future Wait returns immediately the same way.
// After Poison the counters and epoch are incoherent; the owning world is
// unusable and must be rebuilt. Idempotent and safe to call from any
// goroutine (watchdogs, runners of dying PEs).
func (b *barrier) Poison() {
	if b.poisoned.CompareAndSwap(false, true) {
		close(b.poisonCh)
	}
}

// Poisoned reports whether the barrier has been poisoned.
func (b *barrier) Poisoned() bool { return b.poisoned.Load() }
