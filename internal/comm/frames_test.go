package comm_test

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"kamsta/internal/alltoall"
	"kamsta/internal/arena"
	"kamsta/internal/comm"
	"kamsta/internal/dsort"
)

// The frames these tests send are built by the layers above comm, so they
// live in package comm_test.
var (
	kScattered, kInOrder, kGrid, kParity = alltoall.NewSendKey(), alltoall.NewSendKey(), alltoall.NewSendKey(), alltoall.NewSendKey()
	kRebalanced                          = arena.NewKey()
)

// TestBorrowedFrameStillUntilNextCollective is comm's one ownership rule as
// a test, on every path that hands another PE memory to read after release:
// builder frames with scattered and with in-order destinations, RawAlltoall's
// reused staging, the grid route (whose hop Items alias the sender's frame),
// PairExchange and RebalanceInto. Each round deposits, reads, passes the next
// collective and then poisons — explicitly, or by the next round rewriting
// the same slots. No receiver may ever see poison (and, under -race, no read
// may race the poisoning), with one and with two OS threads under the PEs.
func TestBorrowedFrameStillUntilNextCollective(t *testing.T) {
	const p, per, rounds, poison = 8, 5, 200, -1
	// want is what sender s sends receiver d in round r.
	want := func(r, s, d int) int { return (r*p+s)*p + d }
	// run is per copies of v.
	run := func(v int) []int {
		xs := make([]int, per)
		for i := range xs {
			xs[i] = v
		}
		return xs
	}
	// A PE reports a bad read and carries on, so the world stays in step.
	checkFrom := func(t *testing.T, c *comm.Comm, r, s int, got []int) {
		if !slices.Equal(got, run(want(r, s, c.Rank()))) && !t.Failed() {
			t.Errorf("round %d: rank %d read %v from rank %d, want %d×%d", r, c.Rank(), got, s, per, want(r, s, c.Rank()))
		}
	}
	check := func(t *testing.T, c *comm.Comm, r int, recv [][]int) {
		for s, got := range recv {
			checkFrom(t, c, r, s, got)
		}
	}
	inOrder := func(c *comm.Comm, k alltoall.SendKey, r int) alltoall.Builder[int] {
		b := alltoall.NewBuilder[int](c, k)
		for d := 0; d < p; d++ {
			b.Append(d, run(want(r, c.Rank(), d)))
		}
		return b
	}
	paths := []struct {
		name  string
		round func(t *testing.T, c *comm.Comm, r int)
	}{
		{"builder-scattered", func(t *testing.T, c *comm.Comm, r int) {
			b := alltoall.NewBuilder[int](c, kScattered)
			for i := 0; i < per; i++ {
				for d := p - 1; d >= 0; d-- {
					b.Add(d, want(r, c.Rank(), d))
				}
			}
			check(t, c, r, b.Exchange(alltoall.Direct))
			comm.Barrier(c)
		}},
		{"builder-in-order", func(t *testing.T, c *comm.Comm, r int) {
			b := inOrder(c, kInOrder, r)
			check(t, c, r, b.Exchange(alltoall.Direct))
			comm.Barrier(c)
		}},
		{"rawalltoall-staging", func(t *testing.T, c *comm.Comm, r int) {
			send := make([][]int, p)
			for d := range send {
				send[d] = run(want(r, c.Rank(), d))
			}
			recv := comm.RawAlltoall(c, send)
			for _, b := range send {
				b[0] = poison // staged: the buckets are free at once
			}
			check(t, c, r, recv)
			// No Barrier: the next round's exchange is the next collective,
			// so the staging of both parities is rewritten as early as the
			// rule allows.
		}},
		{"grid-route", func(t *testing.T, c *comm.Comm, r int) {
			b := inOrder(c, kGrid, r)
			check(t, c, r, b.Exchange(alltoall.Grid))
			comm.Barrier(c)
		}},
		{"pair-exchange", func(t *testing.T, c *comm.Comm, r int) {
			partner := c.Rank() ^ 1
			pay := run(want(r, c.Rank(), partner))
			checkFrom(t, c, r, partner, comm.PairExchange(c, partner, pay))
			comm.Barrier(c)
			for i := range pay {
				pay[i] = poison
			}
		}},
		{"rebalance-into", func(t *testing.T, c *comm.Comm, r int) {
			// Rank q holds per·(q+1) consecutive values of the round's run.
			first := per * c.Rank() * (c.Rank() + 1) / 2
			data := make([]int, per*(c.Rank()+1))
			for i := range data {
				data[i] = r<<20 + first + i
			}
			out := dsort.RebalanceInto(c, kRebalanced, data)
			for i := range data {
				data[i] = poison // only copies of it were deposited
			}
			total := per * p * (p + 1) / 2
			lo, hi := c.Rank()*total/p, (c.Rank()+1)*total/p
			for i, v := range out {
				if len(out) != hi-lo || v != r<<20+lo+i {
					t.Errorf("round %d: rank %d holds %v, want %d values from %d", r, c.Rank(), out, hi-lo, r<<20+lo)
					break
				}
			}
			comm.Barrier(c)
		}},
	}
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, path := range paths {
				t.Run(path.name, func(t *testing.T) {
					comm.NewWorld(p).Run(func(c *comm.Comm) {
						for r := 0; r < rounds; r++ {
							path.round(t, c, r)
						}
					})
				})
			}
		})
	}
}

// TestTCPTransportParity runs the collectives the algorithms lean on over
// both backends and requires identical per-rank results and modeled clocks,
// among them the same buckets sent three ways: staged by RawAlltoall, as
// one flat frame, and as a builder frame scattered into its buckets.
func TestTCPTransportParity(t *testing.T) {
	for _, g := range []struct{ p, local int }{{2, 1}, {8, 4}, {8, 7}} {
		t.Run(fmt.Sprintf("p%d-local%d", g.p, g.local), func(t *testing.T) {
			p := g.p
			// clone keeps what was received past the next collective.
			clone := func(recv [][]int) [][]int {
				out := make([][]int, len(recv))
				for i := range recv {
					out[i] = slices.Clone(recv[i])
				}
				return out
			}
			// One body exercising the pairwise and group paths together;
			// results and final clocks are captured per rank.
			mkBody := func(vals []int, clocks []float64) func(c *comm.Comm) {
				return func(c *comm.Comm) {
					r := c.Rank()
					acc := comm.Allreduce(c, r+1, func(a, b int) int { return a + b })
					for _, v := range comm.PairExchange(c, r^1, []int{r, r * 10}) {
						acc += v
					}
					members := make([]int, 0, p/2+1)
					for q := 0; q < p; q += 2 {
						members = append(members, q)
					}
					acc += comm.GroupAllreduce(c, members, r+7, func(a, b int) int { return a + b })
					all := comm.AllgatherConcat(c, []int{r * 3})
					flat, off, send := []int(nil), make([]int32, p+1), make([][]int, p)
					b := alltoall.NewBuilder[int](c, kParity)
					for j := p - 1; j >= 0; j-- {
						for k := 0; k < (r+j)%3; k++ {
							b.Add(j, r*100+j*10+k)
						}
					}
					for j := range send {
						for k := 0; k < (r+j)%3; k++ {
							flat = append(flat, r*100+j*10+k)
						}
						send[j], off[j+1] = flat[off[j]:], int32(len(flat))
					}
					staged := clone(comm.RawAlltoall(c, send))
					direct := clone(comm.Alltoall(c, flat, off))
					built := b.Exchange(alltoall.Direct)
					for s := range built {
						if !slices.Equal(staged[s], built[s]) || !slices.Equal(direct[s], built[s]) {
							acc = -1 << 40 // poisons the comparison below on either backend
						}
						for _, v := range built[s] {
							acc += v * (s + 2)
						}
					}
					comm.Barrier(c)
					for _, v := range all {
						acc += v
					}
					vals[r] = acc
					clocks[r] = c.Clock()
				}
			}

			wantVals := make([]int, p)
			wantClocks := make([]float64, p)
			comm.RunShm(t, p, mkBody(wantVals, wantClocks))

			gotVals := make([]int, p)
			gotClocks := make([]float64, p)
			comm.RunDistributed(t, p, g.local, mkBody(gotVals, gotClocks))

			for r := 0; r < p; r++ {
				if gotVals[r] != wantVals[r] {
					t.Errorf("rank %d: value %d over tcp, %d over shm", r, gotVals[r], wantVals[r])
				}
				if gotClocks[r] != wantClocks[r] {
					t.Errorf("rank %d: clock %v over tcp, %v over shm", r, gotClocks[r], wantClocks[r])
				}
			}
		})
	}
}
