//go:build !race

package server

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
