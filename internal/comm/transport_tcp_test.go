package comm

import (
	"context"
	"net"
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

// RunShm and RunDistributed run one SPMD body on an in-process world and on
// a world split over loopback TCP, for the tests of package comm_test, which
// may import the layers built on comm.
func RunShm(t *testing.T, p int, body func(c *Comm)) { shmReference(t, p, body) }

func RunDistributed(t *testing.T, p, local int, body func(c *Comm)) {
	newDistWorld(t, p, local).run(t, body)
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
