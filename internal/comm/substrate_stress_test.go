package comm

import (
	"fmt"
	"strings"
	"testing"
)

// Stress and protocol tests for the double-buffered single-barrier exchange
// substrate. These are written to fail loudly under -race if any of the
// epoch-parity ownership arguments (boards, staging, frames deposited as
// they lie, AllreduceVec's ping-pong) is wrong.

// TestLargeWorldMixedCollectives runs a world far wider than the core count
// through several multi-level tree-barrier epochs with a mix of collective
// shapes, checking values throughout.
func TestLargeWorldMixedCollectives(t *testing.T) {
	const p = 256 // three levels at fan-in 8
	w := NewWorld(p)
	w.Run(func(c *Comm) {
		for round := 0; round < 5; round++ {
			sum := Allreduce(c, c.Rank(), func(a, b int) int { return a + b })
			if want := p * (p - 1) / 2; sum != want {
				t.Errorf("round %d rank %d: sum=%d want %d", round, c.Rank(), sum, want)
				return
			}
			pre := ExScan(c, 1, 0, func(a, b int) int { return a + b })
			if pre != c.Rank() {
				t.Errorf("round %d rank %d: exscan=%d", round, c.Rank(), pre)
				return
			}
			Barrier(c)
			all := Allgather(c, c.Rank()+round)
			if len(all) != p || all[round] != 2*round || all[p-1] != p-1+round {
				t.Errorf("round %d rank %d: allgather=%v", round, c.Rank(), all)
				return
			}
		}
	})
}

// TestInputsMutableImmediatelyAfterReturn pins the ownership contracts the
// single-barrier protocol must preserve: a collective whose deposits only the
// combine step reads (AllgatherConcat) or that stages them (AllreduceVec)
// leaves its inputs and outputs free the moment it returns, and the ones that
// deposit a payload as it lies (Alltoall, PairExchange) free it one
// collective later. A PE scribbling over its buffers at those points can
// never corrupt (or race with) a slower PE's read of the same superstep. Run
// with -race to verify the "no race" half.
func TestInputsMutableImmediatelyAfterReturn(t *testing.T) {
	const p = 8
	w := NewWorld(p)
	w.Run(func(c *Comm) {
		for round := 0; round < 50; round++ {
			// AllgatherConcat: contribution trashed right after.
			contrib := []int{c.Rank() * 10, c.Rank()*10 + 1}
			cat := AllgatherConcat(c, contrib)
			contrib[0], contrib[1] = -1, -1
			if len(cat) != 2*p {
				t.Fatalf("concat len %d", len(cat))
			}
			for r := 0; r < p; r++ {
				if cat[2*r] != r*10 || cat[2*r+1] != r*10+1 {
					t.Errorf("round %d: concat slot %d = %v", round, r, cat[2*r:2*r+2])
					return
				}
			}

			// Alltoall and PairExchange deposit their payloads as they lie:
			// each is read before the reader's next collective and trashed
			// by its sender only after its own next one. Received buckets are
			// appended to (the 3-index clip must isolate them).
			data, off := make([]int, 2*p), make([]int32, p+1)
			for j := 0; j < p; j++ {
				data[2*j], data[2*j+1], off[j+1] = c.Rank()*1000+j, round, int32(2*j+2)
			}
			recv := Alltoall(c, data, off)
			for s := range recv {
				recv[s] = append(recv[s], 12345) // must not spill anywhere
				if recv[s][0] != s*1000+c.Rank() || recv[s][1] != round {
					t.Errorf("round %d rank %d: from %d got %v", round, c.Rank(), s, recv[s][:2])
					return
				}
			}
			partner := c.Rank() ^ 1
			pay := []int{c.Rank(), round}
			out := PairExchange(c, partner, pay)
			for i := range data {
				data[i] = -9
			}
			if out[0] != partner || out[1] != round {
				t.Errorf("round %d rank %d: pair got %v", round, c.Rank(), out)
				return
			}

			// AllreduceVec: the returned accumulator is scribbled over
			// immediately; the next round must be unaffected.
			vec := AllreduceVec(c, []int{c.Rank(), 1}, func(a, b int) int { return a + b })
			pay[0], pay[1] = -7, -7
			if vec[0] != p*(p-1)/2 || vec[1] != p {
				t.Errorf("round %d rank %d: vec %v", round, c.Rank(), vec)
				return
			}
			vec[0], vec[1] = -3, -3
		}
	})
}

// TestAllreduceVecOwnershipOddWorlds exercises the fold/unfold staging on
// non-power-of-two worlds with immediate mutation of the result.
func TestAllreduceVecOwnershipOddWorlds(t *testing.T) {
	for _, p := range []int{3, 5, 7, 12, 24} {
		w := NewWorld(p)
		w.Run(func(c *Comm) {
			for round := 0; round < 20; round++ {
				vec := AllreduceVec(c, []int{c.Rank() + round, 2}, func(a, b int) int { return a + b })
				want0 := p*round + p*(p-1)/2
				if vec[0] != want0 || vec[1] != 2*p {
					t.Errorf("p=%d round %d rank %d: %v want [%d %d]", p, round, c.Rank(), vec, want0, 2*p)
					return
				}
				vec[0] = -1
			}
		})
	}
}

// TestAllreduceVecResultsOutliveNextCall: the vector AllreduceVec returns is
// the caller's, not the rank's reused ping-pong vector, so it survives the
// next reduction, at odd and even butterfly depths and with folded ranks.
func TestAllreduceVecResultsOutliveNextCall(t *testing.T) {
	for _, p := range []int{2, 3, 4, 8, 12} {
		NewWorld(p).Run(func(c *Comm) {
			sum := func(a, b int) int { return a + b }
			first := AllreduceVec(c, []int{1, c.Rank()}, sum)
			second := AllreduceVec(c, []int{2, c.Rank()}, sum)
			if first[0] != p || first[1] != p*(p-1)/2 || second[0] != 2*p || second[1] != p*(p-1)/2 {
				t.Errorf("p=%d rank %d: first %v, second %v", p, c.Rank(), first, second)
			}
		})
	}
}

// TestRunReusesParityCleanly reuses one world for several Runs with an odd
// number of supersteps each, so consecutive Runs start on opposite board
// parities; deposits from a previous Run must never bleed through.
func TestRunReusesParityCleanly(t *testing.T) {
	w := NewWorld(4)
	for run := 0; run < 4; run++ {
		w.Run(func(c *Comm) {
			for i := 0; i < 3; i++ { // odd superstep count
				got := Allreduce(c, run*100+i, func(a, b int) int { return max(a, b) })
				if got != run*100+i {
					t.Errorf("run %d step %d: got %d", run, i, got)
				}
			}
		})
	}
}

// TestGroupAllreduceWithSliceField pins the GroupAllreduce reference-type
// contract used by dsort's pivot sampling: a struct containing a slice is
// merged across a subgroup while another subgroup does the same.
func TestGroupAllreduceWithSliceField(t *testing.T) {
	type set struct{ Items []int }
	const p = 8
	w := NewWorld(p)
	w.Run(func(c *Comm) {
		half := c.Rank() / 4
		members := []int{half * 4, half*4 + 1, half*4 + 2, half*4 + 3}
		for round := 0; round < 25; round++ {
			mine := set{Items: []int{c.Rank(), round}}
			got := GroupAllreduce(c, members, mine, func(a, b set) set {
				m := make([]int, 0, len(a.Items)+len(b.Items))
				m = append(m, a.Items...)
				m = append(m, b.Items...)
				return set{Items: m}
			})
			if len(got.Items) != 8 {
				t.Errorf("round %d rank %d: merged %v", round, c.Rank(), got.Items)
				return
			}
			for i, m := range members {
				if got.Items[2*i] != m || got.Items[2*i+1] != round {
					t.Errorf("round %d rank %d: merged %v", round, c.Rank(), got.Items)
					return
				}
			}
		}
	})
}

// TestManyCollectivesHighChurn hammers the substrate with small collectives
// to stress door parking, epoch wraparound of the parities, and the SPMD
// tag check.
func TestManyCollectivesHighChurn(t *testing.T) {
	const p = 32
	w := NewWorld(p)
	w.Run(func(c *Comm) {
		for i := 0; i < 500; i++ {
			if Allreduce(c, 1, func(a, b int) int { return a + b }) != p {
				t.Error("bad sum")
				return
			}
		}
	})
}

// TestAlltoallRefusesBadFrames: a frame its int32 offsets cannot describe,
// or offsets that do not describe the frame, panic naming the collective
// instead of handing receivers wrong slice bounds. 2^31 zero-size elements
// cost nothing to make.
func TestAlltoallRefusesBadFrames(t *testing.T) {
	panics := func(name, want string, f func(c *Comm)) {
		t.Helper()
		NewWorld(1).Run(func(c *Comm) {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "comm: Alltoall") || !strings.Contains(msg, want) {
					t.Errorf("%s: recovered %q, want a comm: Alltoall panic mentioning %q", name, msg, want)
				}
			}()
			f(c)
		})
	}
	panics("staged 2^31", "overflows its int32 offsets", func(c *Comm) {
		RawAlltoall(c, [][]struct{}{make([]struct{}, 1<<31)})
	})
	panics("flat 2^31", "overflows its int32 offsets", func(c *Comm) {
		Alltoall(c, make([]struct{}, 1<<31), []int32{0, 0})
	})
	for name, off := range map[string][]int32{"count": {0}, "decreasing": {2, 1}, "negative": {-1, 2}, "past the end": {0, 3}} {
		panics(name, "want 2 non-decreasing ones within a frame of 2", func(c *Comm) { Alltoall(c, []int{1, 2}, off) })
	}
}
