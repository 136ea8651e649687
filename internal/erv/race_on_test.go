//go:build race

package erv

// raceEnabled: the race detector instruments allocations, so allocation
// counts mean nothing under -race and the zero-alloc assertions skip.
const raceEnabled = true
