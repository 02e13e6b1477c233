//go:build !race

package testproc

const raceEnabled = false
