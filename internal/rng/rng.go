// Package rng provides Hash64, the stateless splitmix64 step behind
// every seeded decision in the simulator: workload generators, plan
// fingerprints, shard assignment and retry jitter. Determinism across
// runs (and platforms) is a hard requirement: identical seeds must
// reproduce identical instruction streams and therefore identical CoV
// curves.
package rng

// Hash64 deterministically mixes a value (stateless splitmix64 step),
// useful for per-item pseudo-random decisions that must not depend on
// evaluation order.
func Hash64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
