//go:build race

package core

// raceEnabled reports whether the race detector is active; the allocation
// bound skips under it (instrumentation allocates).
const raceEnabled = true
