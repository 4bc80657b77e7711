//go:build race

package dataset

// raceEnabled reports a -race build, under which sync.Pool drops a
// random share of the objects put back, so allocation counts vary from
// run to run.
const raceEnabled = true
