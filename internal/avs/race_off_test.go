//go:build !race

package avs

const raceEnabled = false
