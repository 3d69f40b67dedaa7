// Package sizeof provides the element-size helper shared by the modeled-cost
// accounting in internal/comm and internal/alltoall. Collectives charge
// β-cost per byte, so they need the modeled size of the element type on
// every call; the previous per-package helpers asked reflect for it each
// time, which costs a map lookup and an allocation-prone interface dance on
// the hottest path of the simulator.
package sizeof

import "unsafe"

// Declared is implemented, on the pointer receiver, by a type whose modeled
// size differs from its in-memory size: a record packed tighter than the
// record the cost model charges for, or a composite holding one. The method
// must not read its receiver; Of calls it on a nil pointer.
type Declared interface{ ModeledBytes() int }

// Of returns the modeled size of T in bytes for cost accounting: T's
// declared size if *T implements Declared, its in-memory size otherwise.
// It allocates nothing — the assertion is on a nil pointer, and
// unsafe.Sizeof is a compile-time constant — so calling it per collective
// costs one cached type assertion.
func Of[T any]() int {
	if d, ok := any((*T)(nil)).(Declared); ok {
		return d.ModeledBytes()
	}
	var z T
	return int(unsafe.Sizeof(z))
}
