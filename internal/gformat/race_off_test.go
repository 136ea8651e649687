//go:build !race

package gformat

const raceEnabled = false
