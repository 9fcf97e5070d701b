//go:build !race

package rcr

// raceEnabled skips the allocation guards that cannot hold under the
// race detector.
const raceEnabled = false
