package comm

import (
	"context"
	"fmt"
	"net"
	"slices"
	"testing"

	"kamsta/internal/par"
	"kamsta/internal/transport/tcp"
)

// distWorld is a world split across a leader and one follower transport
// over a real loopback TCP connection — two worlds in one process, as a
// leader and an mstworker process would hold them.
type distWorld struct {
	leader, follower *World
	lt               *tcp.Leader
}

// newDistWorld builds a p-rank world with local leader ranks and the rest
// behind a loopback connection, both halves with the same extra options.
// Both halves are started; run() executes one SPMD body on every rank of
// both.
func newDistWorld(t *testing.T, p, local int, opts ...Option) *distWorld {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()

	type accepted struct {
		f   *tcp.Follower
		hs  tcp.Handshake
		err error
	}
	acceptCh := make(chan accepted, 1)
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			acceptCh <- accepted{err: err}
			return
		}
		f, hs, err := tcp.AcceptFollower(conn, nil)
		acceptCh <- accepted{f: f, hs: hs, err: err}
	}()

	lt, err := tcp.NewLeader(tcp.LeaderConfig{
		P: p, LocalRanks: local, Workers: []string{lis.Addr().String()},
	})
	if err != nil {
		t.Fatal(err)
	}
	acc := <-acceptCh
	if acc.err != nil {
		lt.Close()
		t.Fatal(acc.err)
	}

	d := &distWorld{lt: lt}
	d.leader = NewWorld(p, append(opts, WithTransport(lt))...)
	d.follower = NewWorld(p, append(opts, WithTransport(acc.f))...)
	d.leader.Start()
	d.follower.Start()
	t.Cleanup(func() {
		d.leader.Close()
		lt.Close()
		d.follower.Close()
		acc.f.Close()
	})
	return d
}

// run executes one SPMD body on both halves concurrently, as one job.
func (d *distWorld) run(t *testing.T, body func(c *Comm)) {
	t.Helper()
	errCh := make(chan error, 1)
	go func() { errCh <- d.follower.RunJob(context.Background(), nil, body) }()
	if err := d.leader.RunJob(context.Background(), nil, body); err != nil {
		t.Fatalf("leader: %v", err)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("follower: %v", err)
	}
}

// shmReference runs body on a plain in-process world and returns the given
// extractor's per-rank results for comparison.
func shmReference(t *testing.T, p int, body func(c *Comm)) {
	t.Helper()
	w := NewWorld(p)
	w.Start()
	defer w.Close()
	if err := w.RunJob(context.Background(), nil, body); err != nil {
		t.Fatal(err)
	}
}

// TestTCPTransportParity runs the collectives the algorithms lean on over
// both backends and requires identical per-rank results and modeled clocks.
func TestTCPTransportParity(t *testing.T) {
	for _, g := range []struct{ p, local int }{{2, 1}, {8, 4}, {8, 7}} {
		t.Run(fmt.Sprintf("p%d-local%d", g.p, g.local), func(t *testing.T) {
			p := g.p

			// One body exercising the pairwise and group paths together;
			// results and final clocks are captured per rank.
			mkBody := func(vals []int, clocks []float64) func(c *Comm) {
				return func(c *Comm) {
					r := c.Rank()
					sum := Allreduce(c, r+1, func(a, b int) int { return a + b })
					partner := r ^ 1
					var pair []int
					if partner < p {
						pair = PairExchange(c, partner, []int{r, r * 10})
					} else {
						Barrier(c)
						Barrier(c)
					}
					members := make([]int, 0, p/2+1)
					for q := 0; q < p; q += 2 {
						members = append(members, q)
					}
					gsum := GroupAllreduce(c, members, r+7, func(a, b int) int { return a + b })
					all := AllgatherConcat(c, []int{r * 3})
					// The same buckets deposited both ways: staged, and as a
					// borrowed flat frame a remote rank decodes like any
					// other (still until the next collective has returned).
					flat, off, send := []int(nil), make([]int32, p+1), make([][]int, p)
					for j := range send {
						for k := 0; k < (r+j)%3; k++ {
							flat = append(flat, r*100+j*10+k)
						}
						send[j], off[j+1] = flat[off[j]:], int32(len(flat))
					}
					staged, borrowed := Alltoall(c, send), AlltoallFlat(c, flat, off)
					acc := sum + gsum
					for s := range staged {
						if !slices.Equal(staged[s], borrowed[s]) {
							acc = -1 << 40 // poisons the comparison below on either backend
						}
						for _, v := range borrowed[s] {
							acc += v * (s + 2)
						}
					}
					Barrier(c)
					for _, v := range pair {
						acc += v
					}
					for _, v := range all {
						acc += v
					}
					vals[r] = acc
					clocks[r] = c.Clock()
				}
			}

			// PairExchange is two-sided: with an odd rank out, the
			// partnerless rank must still match collective counts. Keep
			// partners in range instead for simplicity.
			wantVals := make([]int, p)
			wantClocks := make([]float64, p)
			shmReference(t, p, mkBody(wantVals, wantClocks))

			gotVals := make([]int, p)
			gotClocks := make([]float64, p)
			d := newDistWorld(t, p, g.local)
			d.run(t, mkBody(gotVals, gotClocks))

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

// TestPoolPerLocalRank: the world builds one pool per rank it hosts, as wide
// as WithThreads says, on a single-process world and on both halves of a
// distributed one; two ranks never share a pool.
func TestPoolPerLocalRank(t *testing.T) {
	const p, threads = 4, 2
	check := func(pools []*par.Pool) func(c *Comm) {
		return func(c *Comm) {
			if got := c.Pool().Threads(); got != threads || c.Threads() != threads {
				t.Errorf("rank %d: pool is %d wide, Threads() %d, want %d", c.Rank(), got, c.Threads(), threads)
			}
			pools[c.Rank()] = c.Pool()
		}
	}
	shm, dist := make([]*par.Pool, p), make([]*par.Pool, p)
	w := NewWorld(p, WithThreads(threads))
	w.Run(check(shm))
	newDistWorld(t, p, 2, WithThreads(threads)).run(t, check(dist))
	for _, pools := range [][]*par.Pool{shm, dist} {
		for r := 1; r < p; r++ {
			if pools[r] == pools[r-1] {
				t.Errorf("ranks %d and %d share a pool", r-1, r)
			}
		}
	}
}

// TestTCPLeaderDialExhaustion pins that a dead worker port fails leader
// construction after the configured retries instead of hanging.
func TestTCPLeaderDialExhaustion(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close() // nothing listens here anymore
	if _, err := tcp.NewLeader(tcp.LeaderConfig{
		P: 2, LocalRanks: 1, Workers: []string{addr},
		DialRetries: 2, DialBackoff: 1, DialTimeout: 1,
	}); err == nil {
		t.Fatal("NewLeader dialed a closed port successfully")
	}
}
