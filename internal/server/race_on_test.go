//go:build race

package server

// raceEnabled reports whether the race detector is compiled in. Under it
// sync.Pool drops a share of what is put back, so pooled paths allocate
// and allocation budgets are reported, not enforced.
const raceEnabled = true
