//go:build race

package parallel

// raceEnabled reports that the race detector is instrumenting this
// build; it allocates on its own account, so allocation assertions skip.
const raceEnabled = true
