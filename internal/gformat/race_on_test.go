//go:build race

package gformat

// raceEnabled: under -race a sync.Pool drops some of what it is given
// on purpose, so pooled buffers are not pinned at zero allocations.
const raceEnabled = true
