package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenTables pins every table's bytes at two worker pool sizes. The
// golden files were cut from the separate Tables 1-4 and Table 5 commands
// this one replaced, so they prove the merge kept every byte; only
// table5-backward-queued is newer, since those parameters failed with a
// channel leak until the simulator's abort walk was fixed.
func TestGoldenTables(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"table1-trials2", []string{"-table", "1", "-trials", "2"}},
		{"table2-redists20", []string{"-table", "2", "-redists", "20"}},
		{"table3", []string{"-table", "3"}},
		{"table4", []string{"-table", "4"}},
		{"table5", []string{"-table", "5"}},
		{"table5-degrees12-backward", []string{"-table", "5", "-degrees", "1,2", "-hopdelay", "4", "-backoff", "8", "-backward"}},
		{"table5-backward-queued", []string{"-table", "5", "-backward", "-queued"}},
	}
	for _, c := range cases {
		want, err := os.ReadFile(filepath.Join("testdata", c.golden+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []string{"1", "4"} {
			args := append(c.args[:len(c.args):len(c.args)], "-workers", workers)
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s -workers %s: exit %d: %s", c.golden, workers, code, stderr.String())
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("%s -workers %s: output differs from testdata\ngot:\n%s\nwant:\n%s",
					c.golden, workers, stdout.String(), want)
			}
		}
	}
}

// TestFlagErrors: bad input, a zero sample count included, exits 2 with a
// one-line error, and a negative sample count is a failed run (exit 1),
// not a panic.
func TestFlagErrors(t *testing.T) {
	for _, c := range []struct {
		args []string
		code int
	}{
		{[]string{"-table", "9"}, 2},
		{[]string{"-experiment", "bogus"}, 2},
		{[]string{"-table", "5", "-degrees", "1,x"}, 2},
		{[]string{"-table", "1", "-trials", "-1"}, 1},
		{[]string{"-table", "1", "-trials", "0"}, 2},
		{[]string{"-table", "2", "-redists", "0"}, 2},
		{[]string{"-table", "2", "-redists", "-1"}, 1},
	} {
		var stdout, stderr bytes.Buffer
		code := run(c.args, &stdout, &stderr)
		if code != c.code {
			t.Errorf("%v: exit %d, want %d (stderr %q)", c.args, code, c.code, stderr.String())
		}
		msg := stderr.String()
		if !strings.HasPrefix(msg, "cctables: ") || strings.Count(msg, "\n") != 1 {
			t.Errorf("%v: stderr %q, want one line starting \"cctables: \"", c.args, msg)
		}
	}
}
