//go:build !race

package erv

const raceEnabled = false
