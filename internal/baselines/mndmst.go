package baselines

import (
	"slices"

	"kamsta/internal/alltoall"
	"kamsta/internal/comm"
	"kamsta/internal/graph"
	"kamsta/internal/localmst"
	"kamsta/internal/radix"
)

// groupSize is MND-MST's merge fan-in.
const groupSize = 4

// labelPair carries one contraction record (vertex → component root).
type labelPair struct {
	V, L graph.VID
}

// MNDMST computes the MSF in the style of Panja and Vadhiyar's MND-MST
// (CPU path): every PE first contracts its local subgraph with Borůvka,
// then fixed-size groups of PEs ship their contracted graphs to a group
// leader which contracts the merged subgraph, and the process recurses
// with only the leaders until one PE holds the remaining graph.
//
// Faithfulness notes (also in DESIGN.md):
//   - MND-MST's input format forbids shared vertices: edges of a vertex
//     split across a PE boundary are moved wholesale to the first holder
//     (the paper notes this causes their load imbalance on skewed graphs).
//   - Local contraction uses the freeze-on-cut rule (only contract along
//     an edge that is the component's lightest incident edge overall), the
//     condition under which locally selected edges are globally correct
//     MST edges.
//   - Members ship their cumulative contraction maps together with their
//     contracted edges; the leader resolves the stale ghost labels of the
//     merged subgraphs before contracting further. The merge hierarchy —
//     MND-MST's defining structure and its leader bottleneck — is
//     reproduced exactly.
func MNDMST(c *comm.Comm, edges []graph.Edge, layout *graph.Layout) Result {
	p := c.P()

	// Reassign shared-vertex edge ranges to the first holder so every
	// vertex's outgoing range lives on exactly one PE.
	send := alltoall.NewBuilder[graph.Edge](c, kReassign)
	for _, e := range edges {
		dest := c.Rank()
		if first, last := layout.SharedSpan(e.U); last > first {
			dest = first
		}
		send.Add(dest, e)
	}
	mine := slices.Concat(send.Exchange(a2a)...)
	radix.Sort(mine, graph.KeyLex, graph.LessLex)
	c.ChargeCompute(len(mine))

	// Vertex ownership after the reassignment: the first source vertex per
	// PE, replicated; owner0(v) = last PE whose range starts at or below v.
	// Allgather's list is valid until this PE's next collective, and the
	// merge hierarchy below runs many, so it is copied.
	type bound struct {
		Has   bool
		First graph.VID
	}
	b := bound{}
	if len(mine) > 0 {
		b = bound{Has: true, First: mine[0].U}
	}
	bounds := slices.Clone(comm.Allgather(c, b))
	owner0 := func(v graph.VID) int {
		own := 0
		for i := 0; i < p; i++ {
			if bounds[i].Has && bounds[i].First <= v {
				own = i
			}
		}
		return own
	}
	ownerMemo := map[graph.VID]int{}

	// Merge hierarchy: at level k the active PEs are those with
	// rank % stride == 0; groups of groupSize consecutive active PEs merge
	// onto their first member, so the leader of v's original owner at
	// stride s is (owner0(v)/s)·s.
	var mst []graph.Edge
	work := mine
	cum := map[graph.VID]graph.VID{} // cumulative contraction map of my subtree
	stride := 1
	levels := 0
	for {
		active := c.Rank()%stride == 0
		if active {
			// Resolve stale endpoint labels through the merged maps.
			resolve := func(v graph.VID) graph.VID {
				for {
					l, ok := cum[v]
					if !ok {
						return v
					}
					v = l
				}
			}
			fixed := work[:0]
			for _, e := range work {
				e.U, e.V = resolve(e.U), resolve(e.V)
				if e.U != e.V {
					fixed = append(fixed, e)
				}
			}
			work = fixed
			c.ChargeCompute(len(work))

			s := stride
			isLocal := func(v graph.VID) bool {
				o, ok := ownerMemo[v]
				if !ok {
					o = owner0(v)
					ownerMemo[v] = o
				}
				return (o/s)*s == c.Rank()
			}
			res := localmst.Run(work, isLocal, localmst.Config{})
			mst = append(mst, res.MSTEdges...)
			work = res.Remaining
			for i, v := range res.Verts {
				if l := res.Roots[i]; v != l {
					cum[v] = l
				}
			}
			c.ChargeCompute(res.Work)
		}
		levels++
		if stride >= p {
			break
		}
		// Ship contracted graphs and contraction maps to the group leaders.
		leader := (c.Rank() / (stride * groupSize)) * (stride * groupSize)
		// Each frame is built after, and read before, the other exchange.
		ships, isLeader := active && leader != c.Rank(), active && leader == c.Rank()
		sendE := alltoall.NewBuilder[graph.Edge](c, kShipE)
		if ships {
			sendE.Append(leader, work)
		}
		if recvE := sendE.Exchange(a2a); isLeader {
			work = append(work, slices.Concat(recvE...)...)
		}
		sendM := alltoall.NewBuilder[labelPair](c, kShipM)
		if ships {
			for v, l := range cum {
				sendM.Add(leader, labelPair{V: v, L: l})
			}
		}
		recvM := sendM.Exchange(a2a)
		if isLeader {
			for i := range recvM {
				for _, lp := range recvM[i] {
					cum[lp.V] = lp.L
				}
			}
		} else {
			work, cum = nil, map[graph.VID]graph.VID{}
		}
		stride *= groupSize
	}
	return finishResult(c, mst, levels)
}
