//go:build !race

package alltoall

// raceEnabled reports a -race build, whose instrumentation allocates: the
// allocation checks skip there.
const raceEnabled = false
