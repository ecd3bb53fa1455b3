//go:build !race

package q931

const raceEnabled = false
