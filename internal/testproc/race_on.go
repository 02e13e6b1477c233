//go:build race

package testproc

// raceEnabled mirrors the race detector into the worker binaries the
// distributed process test builds, so both sides of the wire run checked.
const raceEnabled = true
