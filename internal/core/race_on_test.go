//go:build race

package core

// raceEnabled: the race detector allocates on its own account, so
// allocation counts mean nothing under -race and are not taken.
const raceEnabled = true
