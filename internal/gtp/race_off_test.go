//go:build !race

package gtp

const raceEnabled = false
