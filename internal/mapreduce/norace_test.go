//go:build !race

package mapreduce

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
