// The benchmark is a module of its own so that the repository's tier-1
// build never depends on it; the replace directive points at the checkout it
// sits in, and the kamsta/ path prefix keeps kamsta/internal importable.
module kamsta/benchmark

go 1.22

require kamsta v0.0.0

replace kamsta => ../
