package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestFlagErrors: bad input, a zero trial count included, exits 2 with a
// one-line error; a negative trial count is a failed run (exit 1).
func TestFlagErrors(t *testing.T) {
	for _, c := range []struct {
		args []string
		code int
	}{
		{[]string{"-trials", "0", "-faults", "1"}, 2},
		{[]string{"-faults", "1,x"}, 2},
		{[]string{"-faults", "0"}, 2},
		{[]string{"-alg", "bogus"}, 2},
		{[]string{"-topology", "torus-1x1"}, 2},
		{[]string{"-trials", "-1", "-faults", "1"}, 1},
	} {
		var stdout, stderr bytes.Buffer
		code := run(c.args, &stdout, &stderr)
		if code != c.code {
			t.Errorf("%v: exit %d, want %d (stderr %q)", c.args, code, c.code, stderr.String())
		}
		msg := stderr.String()
		if !strings.HasPrefix(msg, "ccfault: ") || strings.Count(msg, "\n") != 1 {
			t.Errorf("%v: stderr %q, want one line starting \"ccfault: \"", c.args, msg)
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-bogus"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
}

// TestRunPrintsTable: a small run prints the header with the sample count
// it averaged.
func TestRunPrintsTable(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-faults", "1", "-trials", "2"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), "fault degradation on torus-8x8: shift-by-9, 32 flits, 2 trials/row, scheduler coloring\n") {
		t.Fatalf("header %q", strings.SplitN(stdout.String(), "\n", 2)[0])
	}
}
