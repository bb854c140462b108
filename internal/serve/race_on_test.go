//go:build race

package serve

// raceEnabled reports a -race build, where sync.Pool deliberately drops
// pooled items at random and allocation counts say nothing.
const raceEnabled = true
