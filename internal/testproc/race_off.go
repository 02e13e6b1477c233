//go:build !race

package testproc

const Race = false
