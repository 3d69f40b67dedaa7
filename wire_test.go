package kamsta

import (
	"context"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"

	"kamsta/internal/comm"
	"kamsta/internal/transport/tcp"
)

// fillNonZero sets every field reachable from v to a distinct non-zero
// value. An unhandled kind fails the test: a field of a new shape added to a
// wire struct must be taught to this filler (and to the enc walker) rather
// than silently skipped.
func fillNonZero(t *testing.T, v reflect.Value, n *int) {
	t.Helper()
	*n++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(*n))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(*n) + 0.5)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fillNonZero(t, v.Index(i), n)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !v.Field(i).CanSet() {
				t.Fatalf("%v.%s is unexported: the wire would need an unsafe copy to carry it", v.Type(), v.Type().Field(i).Name)
			}
			fillNonZero(t, v.Field(i), n)
		}
	default:
		t.Fatalf("fillNonZero: unhandled kind %v (%v)", v.Kind(), v.Type())
	}
}

// requireAllSet fails if any field reachable from v is still zero.
func requireAllSet(t *testing.T, path string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			requireAllSet(t, path+"."+v.Type().Field(i).Name, v.Field(i))
		}
	case reflect.Slice:
		if v.Len() == 0 {
			t.Fatalf("%s is empty", path)
		}
		for i := 0; i < v.Len(); i++ {
			requireAllSet(t, fmt.Sprintf("%s[%d]", path, i), v.Index(i))
		}
	default:
		if v.IsZero() {
			t.Fatalf("%s is zero", path)
		}
	}
}

func wireRoundTrip[T any](t *testing.T) {
	t.Helper()
	var v T
	n := 0
	fillNonZero(t, reflect.ValueOf(&v).Elem(), &n)
	var got T
	if err := decodeWire("frame", encodeWire(nil, &v), &got); err != nil {
		t.Fatalf("%T: %v", v, err)
	}
	requireAllSet(t, fmt.Sprintf("%T", v), reflect.ValueOf(got))
	if !reflect.DeepEqual(got, v) {
		t.Fatalf("%T round trip:\n got %+v\nwant %+v", v, got, v)
	}
	if err := decodeWire("frame", append(encodeWire(nil, &v), 0), new(T)); err == nil {
		t.Fatalf("%T: trailing byte accepted", v)
	}
}

// TestWireFramesCarryEveryField fills every field of the two job-control
// frames — nested core.Options, gen.Spec, and the comm.PhaseTime rows,
// comm.Stats and shares of a report, which travel as themselves — and
// requires them back unchanged: a field added to any of those structs cannot
// be dropped on the wire without this test noticing.
func TestWireFramesCarryEveryField(t *testing.T) {
	wireRoundTrip[wireJobSpec](t)
	wireRoundTrip[wireJobEnd](t)
}

// TestJobKindTable runs every kind the leader can dispatch through
// runWorkerJob on a real worker-side world and checks the report; an unknown
// kind must come back as a failure report — both sides refuse it in lock
// step — and leave the machine usable.
func TestJobKindTable(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	// Sized to the dispatches below: the worker never blocks on the test.
	reports := make(chan wireJobEnd, len(jobKinds)+2)
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		f, hs, err := tcp.AcceptFollower(conn, nil)
		if err != nil {
			conn.Close()
			return
		}
		defer f.Close()
		if hs.Threads != 2 {
			t.Errorf("handshake carries %d threads, the machine has 2", hs.Threads)
		}
		w := comm.NewWorld(hs.P, comm.WithTransport(f), comm.WithThreads(hs.Threads),
			comm.WithCost(comm.CostModel{Alpha: hs.Alpha, Beta: hs.Beta, Compute: hs.Compute}))
		w.Start()
		defer w.Close()
		for {
			b, err := f.NextJob()
			if err != nil {
				return
			}
			var spec wireJobSpec
			if decodeWire("job spec", b, &spec) != nil {
				return
			}
			end := runWorkerJob(w, f, hs, spec)
			reports <- end
			if f.EndJob(encodeWire(nil, &end)) != nil {
				return
			}
		}
	}()

	// Two threads per PE: the follower world builds its ranks' pools from the
	// handshake (comm's TestPoolPerLocalRank checks their width).
	m, err := NewMachine(MachineConfig{PEs: 4, Threads: 2, Transport: TransportTCP, Workers: []string{lis.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ctx := context.Background()
	spec := GraphSpec{Family: GNM, N: 64, M: 256, Seed: 3}
	checkBlock := func(kind string, end wireJobEnd) {
		t.Helper()
		if end.Lo != 2 || end.Hi != 4 {
			t.Fatalf("%s: report covers [%d,%d), want [2,4)", kind, end.Lo, end.Hi)
		}
	}
	for kind, k := range jobKinds {
		var src Source
		if k.needsSource {
			src = FromSpec(spec)
		}
		if _, err := m.runJob(ctx, kind, src, runSettings{alg: AlgBoruvka, seed: 1}); err != nil {
			t.Fatalf("%s: leader: %v", kind, err)
		}
		end := <-reports
		checkBlock(kind, end)
		if !end.OK || len(end.Clocks) != 2 {
			t.Fatalf("%s: worker report %+v", kind, end)
		}
	}

	if _, err := m.runJob(ctx, "nonsense", nil, runSettings{}); err == nil || !strings.Contains(err.Error(), "unknown job kind") {
		t.Fatalf("unknown kind on the leader: %v", err)
	}
	end := <-reports
	checkBlock("nonsense", end)
	if end.OK || !strings.Contains(end.Err, "unknown job kind") {
		t.Fatalf("unknown kind on the worker: %+v", end)
	}
	if _, err := m.Compute(ctx, FromSpec(spec)); err != nil {
		t.Fatalf("machine unusable after a refused dispatch: %v", err)
	}
}
