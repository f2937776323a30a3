//go:build race

package service

// raceEnabled reports whether the race detector is active; the allocation
// bound skips under it (instrumentation allocates).
const raceEnabled = true
