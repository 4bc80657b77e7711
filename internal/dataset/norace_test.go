//go:build !race

package dataset

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
