//go:build race

package server

// raceEnabled reports a -race build, where sync.Pool drops items at random
// and allocation counts stop being fixed.
const raceEnabled = true
