package kamsta

import (
	"context"
	"errors"
	"math"
	"net"
	"sync"
	"testing"
)

// startTestWorker serves an in-process worker on a loopback listener and
// returns its address. The worker is torn down (and waited for) when the
// test ends.
func startTestWorker(t *testing.T) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		ServeWorker(ctx, lis, WorkerOptions{})
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return lis.Addr().String()
}

// tcpMachine builds a distributed machine over in-process loopback workers.
func tcpMachine(t *testing.T, pes, workers int) *Machine {
	t.Helper()
	addrs := make([]string, workers)
	for i := range addrs {
		addrs[i] = startTestWorker(t)
	}
	m, err := NewMachine(MachineConfig{PEs: pes, Transport: TransportTCP, Workers: addrs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// TestTCPGoldenBits pins the distributed backend to the same bits as the
// in-process one: the golden modeled clocks, weights and traffic stats of
// TestModeledTimeGolden must hold verbatim when the world spans processes,
// and the MSF edge lists must match edge for edge. The wire may change wall
// time only.
func TestTCPGoldenBits(t *testing.T) {
	// A copy of bench.GoldenCases' rows: a package kamsta test cannot import
	// internal/bench, which imports kamsta.
	cases := []struct {
		name        string
		spec        GraphSpec
		alg         Algorithm
		workers     int
		modeledBits uint64
		weight      uint64
		msgs        int64
		bytes       int64
		collectives int64
	}{
		{
			name: "gnm-boruvka-1worker",
			spec: GraphSpec{Family: GNM, N: 1 << 10, M: 1 << 13, Seed: 42},
			alg:  AlgBoruvka, workers: 1,
			modeledBits: 0x3f477e5d0e5f2490,
			weight:      20394, msgs: 336, bytes: 1639168, collectives: 96,
		},
		{
			name: "gnm-boruvka-2workers",
			spec: GraphSpec{Family: GNM, N: 1 << 10, M: 1 << 13, Seed: 42},
			alg:  AlgBoruvka, workers: 2,
			modeledBits: 0x3f477e5d0e5f2490,
			weight:      20394, msgs: 336, bytes: 1639168, collectives: 96,
		},
		{
			name: "rgg2d-filter-1worker",
			spec: GraphSpec{Family: RGG2D, N: 1 << 10, M: 1 << 13, Seed: 7},
			alg:  AlgFilterBoruvka, workers: 1,
			modeledBits: 0x3f5d6c924f786342,
			weight:      22137, msgs: 1224, bytes: 1718504, collectives: 352,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := tcpMachine(t, 8, tc.workers)
			rep, err := m.Compute(context.Background(), FromSpec(tc.spec), WithAlgorithm(tc.alg))
			if err != nil {
				t.Fatal(err)
			}
			if got := math.Float64bits(rep.ModeledSeconds); got != tc.modeledBits {
				t.Errorf("ModeledSeconds = %v (bits %#x), want bits %#x", rep.ModeledSeconds, got, tc.modeledBits)
			}
			if rep.TotalWeight != tc.weight {
				t.Errorf("TotalWeight = %d, want %d", rep.TotalWeight, tc.weight)
			}
			if rep.Stats.Messages != tc.msgs || rep.Stats.Bytes != tc.bytes || rep.Stats.Collectives != tc.collectives {
				t.Errorf("Stats = %+v, want msgs=%d bytes=%d collectives=%d",
					rep.Stats, tc.msgs, tc.bytes, tc.collectives)
			}

			// The MSF must match the in-process backend edge for edge.
			sm, err := NewMachine(MachineConfig{PEs: 8})
			if err != nil {
				t.Fatal(err)
			}
			defer sm.Close()
			srep, err := sm.Compute(context.Background(), FromSpec(tc.spec), WithAlgorithm(tc.alg))
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.MSTEdges) != len(srep.MSTEdges) {
				t.Fatalf("MSF has %d edges over tcp, %d over shm", len(rep.MSTEdges), len(srep.MSTEdges))
			}
			for i := range rep.MSTEdges {
				if rep.MSTEdges[i] != srep.MSTEdges[i] {
					t.Fatalf("MSF edge %d = %+v over tcp, %+v over shm", i, rep.MSTEdges[i], srep.MSTEdges[i])
				}
			}
		})
	}
}

// TestTCPMachineReuse runs several jobs — the sequential reference among
// them — on one distributed machine, pinning the job-control stream
// synchronization between jobs.
func TestTCPMachineReuse(t *testing.T) {
	m := tcpMachine(t, 4, 1)
	spec := GraphSpec{Family: GNM, N: 1 << 8, M: 1 << 10, Seed: 3}
	var weights []uint64
	for i := 0; i < 3; i++ {
		rep, err := m.Compute(context.Background(), FromSpec(spec), WithAlgorithm(AlgBoruvka))
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		weights = append(weights, rep.TotalWeight)
	}
	if weights[0] != weights[1] || weights[1] != weights[2] {
		t.Errorf("weights drifted across jobs: %v", weights)
	}
	ref, err := m.Compute(context.Background(), FromSpec(spec), WithAlgorithm(AlgKruskal))
	if err != nil {
		t.Fatalf("kruskal reference: %v", err)
	}
	if ref.TotalWeight != weights[0] {
		t.Errorf("kruskal weight %d != boruvka weight %d", ref.TotalWeight, weights[0])
	}
	if !m.Healthy() {
		t.Error("machine unhealthy after clean jobs")
	}
}

// TestTCPConcurrentWorkers pins that one worker process serves several
// leaders at once: each connection gets its own world.
func TestTCPConcurrentWorkers(t *testing.T) {
	addr := startTestWorker(t)
	spec := GraphSpec{Family: GNM, N: 1 << 8, M: 1 << 10, Seed: 5}
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := NewMachine(MachineConfig{PEs: 4, Transport: TransportTCP, Workers: []string{addr}})
			if err != nil {
				errs[i] = err
				return
			}
			defer m.Close()
			_, errs[i] = m.Compute(context.Background(), FromSpec(spec), WithAlgorithm(AlgBoruvka))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("leader %d: %v", i, err)
		}
	}
}

// TestTCPConfigValidation pins the distributed-config error paths.
func TestTCPConfigValidation(t *testing.T) {
	if err := (MachineConfig{Transport: TransportTCP}).Validate(); err == nil {
		t.Error("tcp without workers validated")
	}
	if err := (MachineConfig{Workers: []string{"x:1"}}).Validate(); err == nil {
		t.Error("workers without tcp transport validated")
	}
	if err := (MachineConfig{Transport: "carrier-pigeon"}).Validate(); err == nil {
		t.Error("unknown transport validated")
	}
	if err := (MachineConfig{PEs: 2, Transport: TransportTCP, Workers: []string{"a:1", "b:1", "c:1"}}).Validate(); err == nil {
		t.Error("2 PEs over 4 processes validated")
	}
	// A worker that hangs up during the handshake must fail construction,
	// not hang. (Dial-retry exhaustion on a dead port is covered in the
	// transport package, where the retry knobs are reachable.)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			conn.Close()
		}
	}()
	if _, err := NewMachine(MachineConfig{
		PEs: 4, Transport: TransportTCP, Workers: []string{lis.Addr().String()},
	}); err == nil {
		t.Error("NewMachine handshook a hanging-up worker successfully")
	}
}

// TestTCPWorkerLoss kills the worker's connection mid-job: the job must
// surface a transport-kind *JobError (not hang), the machine must report
// unhealthy and fast-fail subsequent jobs, and a fresh in-process machine
// must be unaffected.
func TestTCPWorkerLoss(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	conns := make(chan net.Conn, 8)
	go func() {
		defer close(done)
		ServeWorker(ctx, &connCaptureListener{Listener: lis, conns: conns}, WorkerOptions{})
	}()
	defer func() { cancel(); <-done }()

	m, err := NewMachine(MachineConfig{PEs: 4, Transport: TransportTCP, Workers: []string{lis.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// Warm up: one clean job proves the world, then kill the connection
	// under the next one.
	spec := GraphSpec{Family: GNM, N: 1 << 10, M: 1 << 13, Seed: 11}
	if _, err := m.Compute(context.Background(), FromSpec(spec), WithAlgorithm(AlgBoruvka)); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	conn := <-conns
	go conn.Close() // mid-job, from the worker's side
	_, err = m.Compute(context.Background(), FromSpec(spec), WithAlgorithm(AlgFilterBoruvka))
	if err == nil {
		t.Fatal("job survived losing its worker")
	}
	var je *JobError
	if errors.As(err, &je) {
		if je.Kind != FaultTransport {
			t.Errorf("fault kind = %v, want FaultTransport", je.Kind)
		}
	} else if !errors.Is(err, ErrWorldFailed) {
		t.Errorf("err = %v (%T), want *JobError or ErrWorldFailed", err, err)
	}
	if m.Healthy() {
		t.Error("machine healthy after losing its worker")
	}
	if _, err := m.Compute(context.Background(), FromSpec(spec), WithAlgorithm(AlgBoruvka)); !errors.Is(err, ErrWorldFailed) {
		t.Errorf("next job: err = %v, want ErrWorldFailed", err)
	}

	// The failure is contained to that machine: a fresh in-process one works.
	sm, err := NewMachine(MachineConfig{PEs: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sm.Close()
	if _, err := sm.Compute(context.Background(), FromSpec(spec), WithAlgorithm(AlgBoruvka)); err != nil {
		t.Errorf("fresh shm machine: %v", err)
	}
}

// connCaptureListener hands accepted connections to the test so it can
// sever them mid-job.
type connCaptureListener struct {
	net.Listener
	conns chan net.Conn
}

func (l *connCaptureListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err == nil {
		select {
		case l.conns <- conn:
		default:
		}
	}
	return conn, err
}
