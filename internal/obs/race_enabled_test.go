//go:build race

package obs

// raceEnabled gates allocation-count assertions: the race detector's
// instrumentation allocates, so steady-state-allocs tests skip under -race.
const raceEnabled = true
