//go:build !race

package vgprs_test

const raceEnabled = false
