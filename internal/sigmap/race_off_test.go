//go:build !race

package sigmap

const raceEnabled = false
