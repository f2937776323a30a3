package schedule

// SetAAPCTerminalCutoff sets the terminal count above which Combined and
// OracleCombined skip their AAPC member, and returns the function that
// restores the previous cutoff.
func SetAAPCTerminalCutoff(n int) (restore func()) {
	old := aapcTerminalCutoff
	aapcTerminalCutoff = n
	return func() { aapcTerminalCutoff = old }
}
