//go:build race

package testproc

// Race reports that the race detector is on. Build mirrors it into the
// worker binaries the distributed process tests build, so both sides of
// the wire run checked; allocation tests whose counts go through a
// sync.Pool, which the detector drains at random, skip under it.
const Race = true
