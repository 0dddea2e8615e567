//go:build race

package server

// raceEnabled reports that the race detector is on: it makes sync.Pool drop
// a share of what is returned to it, so allocation counts mean nothing.
const raceEnabled = true
