//go:build !race

package tensor

// RaceEnabled reports a race build, the repo's checked build (`make test`
// and `make chaos` run -race). There MatMulPacked re-packs B on every call
// to catch a stale packed copy, which allocates, and the detector makes
// sync.Pool drop entries at random, so pooled scratch re-allocates: tests
// that pin allocations skip, tests of the stale-copy rule expect the panic.
const RaceEnabled = false
