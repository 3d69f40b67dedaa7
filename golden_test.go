package kamsta

import (
	"context"
	"math"
	"testing"
)

// TestModeledTimeGolden pins the α-β accounting of the communication
// substrate to the bit. The modeled clock is a deterministic function of the
// algorithm's communication structure and the cost model — it must not move
// when the substrate's wall-clock implementation (barriers, boards, staging)
// is reworked. The reference bits were captured on the pre-refactor
// mutex+cond substrate; any drift here means the refactor changed the
// machine model, not just its speed.
func TestModeledTimeGolden(t *testing.T) {
	cases := []struct {
		name        string
		spec        GraphSpec
		alg         Algorithm
		modeledBits uint64
		weight      uint64
		msfEdges    int
		msgs        int64
		bytes       int64
		collectives int64
	}{
		{
			name:        "gnm-boruvka",
			spec:        GraphSpec{Family: GNM, N: 1 << 10, M: 1 << 13, Seed: 42},
			alg:         AlgBoruvka,
			modeledBits: 0x3f453980b2cb7769, // 0.0006477239999999998 s
			weight:      19837,
			msfEdges:    1023,
			msgs:        312,
			bytes:       1377024,
			collectives: 88,
		},
		{
			name:        "rgg2d-filter",
			spec:        GraphSpec{Family: RGG2D, N: 1 << 10, M: 1 << 13, Seed: 7},
			alg:         AlgFilterBoruvka,
			modeledBits: 0x3f68ca7d4d6ed9eb, // 0.003026242000000003 s
			weight:      22137,
			msfEdges:    1023,
			msgs:        2192,
			bytes:       1884808,
			collectives: 472,
		},
	}
	m := newTestMachine(t, MachineConfig{PEs: 8})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := m.Compute(context.Background(), FromSpec(tc.spec), WithAlgorithm(tc.alg))
			if err != nil {
				t.Fatal(err)
			}
			if got := math.Float64bits(rep.ModeledSeconds); got != tc.modeledBits {
				t.Errorf("ModeledSeconds = %v (bits %#x), want bits %#x (%v)",
					rep.ModeledSeconds, got, tc.modeledBits, math.Float64frombits(tc.modeledBits))
			}
			if rep.TotalWeight != tc.weight || rep.NumEdges != tc.msfEdges {
				t.Errorf("MSF weight/edges = %d/%d, want %d/%d",
					rep.TotalWeight, rep.NumEdges, tc.weight, tc.msfEdges)
			}
			if rep.Stats.Messages != tc.msgs || rep.Stats.Bytes != tc.bytes || rep.Stats.Collectives != tc.collectives {
				t.Errorf("Stats = %+v, want msgs=%d bytes=%d collectives=%d",
					rep.Stats, tc.msgs, tc.bytes, tc.collectives)
			}
		})
	}
}
