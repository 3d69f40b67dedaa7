package comm

import (
	"fmt"
	"testing"
)

// Wall-clock microbenchmarks of the communication substrate itself. ns/op is
// the real time of one collective superstep across the whole world (every PE
// executes b.N collectives; the world-wide superstep rate is what the
// simulator's throughput is bounded by). These numbers guard the substrate
// against regressions: pre/post figures for each change are recorded in
// CHANGES.md.

func benchAllreduce(b *testing.B, p int) {
	w := NewWorld(p)
	w.Run(func(c *Comm) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			Allreduce(c, c.Rank()+i, func(x, y int) int {
				if x > y {
					return x
				}
				return y
			})
		}
	})
}

func BenchmarkAllreduce(b *testing.B) {
	for _, p := range []int{8, 64} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) { benchAllreduce(b, p) })
	}
}

func BenchmarkAllreduceVec(b *testing.B) {
	for _, p := range []int{8, 64} {
		b.Run(fmt.Sprintf("p=%d/n=256", p), func(b *testing.B) {
			w := NewWorld(p)
			w.Run(func(c *Comm) {
				xs, dst := make([]int, 256), make([]int, 256)
				for j := range xs {
					xs[j] = c.Rank() + j
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					AllreduceVec(c, dst, xs, func(x, y int) int { return x + y })
				}
			})
		})
	}
}

func BenchmarkAlltoall(b *testing.B) {
	const p = 16
	b.Run(fmt.Sprintf("p=%d/bucket=256", p), func(b *testing.B) {
		w := NewWorld(p)
		w.Run(func(c *Comm) {
			data, off := make([]int, p*256), make([]int32, p+1)
			for i := range data {
				data[i] = c.Rank()*1000 + i%256
			}
			for i := range off {
				off[i] = int32(i * 256)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Alltoall(c, data, off)
			}
		})
	})
}

func BenchmarkBarrierCollective(b *testing.B) {
	for _, p := range []int{8, 64} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			w := NewWorld(p)
			w.Run(func(c *Comm) {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					Barrier(c)
				}
			})
		})
	}
}
