package experiments_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/experiments"
	"repro/internal/topology"
)

func TestTable1Shape(t *testing.T) {
	torus := topology.NewTorus(8, 8)
	rows, err := experiments.Table1(torus, experiments.Table1Config{
		Sizes:  []int{100, 1200, 4000},
		Trials: 8,
		Seed:   1996,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for i, row := range rows {
		if len(row.Degrees) != 4 {
			t.Fatalf("row %d has %d degree columns", i, len(row.Degrees))
		}
		// The paper's structural findings: coloring <= greedy on average,
		// combined <= both coloring and aapc, improvement >= 0.
		greedy, coloring, aapc, combined := row.Degrees[0], row.Degrees[1], row.Degrees[2], row.Degrees[3]
		if coloring > greedy {
			t.Errorf("n=%d: coloring %.1f above greedy %.1f", row.Conns, coloring, greedy)
		}
		if combined > coloring+1e-9 || combined > aapc+1e-9 {
			t.Errorf("n=%d: combined %.1f not the minimum of coloring %.1f / aapc %.1f",
				row.Conns, combined, coloring, aapc)
		}
		if row.Improvement < 0 {
			t.Errorf("n=%d: negative improvement %.1f%%", row.Conns, row.Improvement)
		}
		// Degrees grow with connection count.
		if i > 0 && row.Degrees[3] <= rows[i-1].Degrees[3] {
			t.Errorf("combined degree not increasing: %.1f after %.1f", row.Degrees[3], rows[i-1].Degrees[3])
		}
	}
	// Dense random patterns saturate at the AAPC bound.
	last := rows[len(rows)-1]
	if last.Degrees[2] != 64 || last.Degrees[3] != 64 {
		t.Errorf("4000-connection aapc/combined = %.1f/%.1f, want 64/64", last.Degrees[2], last.Degrees[3])
	}
}

func TestTable2Shape(t *testing.T) {
	torus := topology.NewTorus(8, 8)
	rows, err := experiments.Table2(torus, experiments.Table2Config{
		Redistributions: 60,
		Seed:            1996,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("got %d buckets", len(rows))
	}
	total := 0
	for _, row := range rows {
		total += row.Patterns
		if row.Patterns == 0 {
			continue
		}
		if row.Degrees[3] > row.Degrees[0] {
			t.Errorf("bucket %d-%d: combined above greedy", row.Lo, row.Hi)
		}
	}
	if total != 60 {
		t.Fatalf("buckets hold %d patterns, want 60", total)
	}
	// The structurally impossible buckets stay empty (paper's zeros).
	for _, row := range rows {
		if (row.Lo == 1201 || row.Lo == 2401) && row.Patterns != 0 {
			t.Errorf("bucket %d-%d should be structurally empty, has %d", row.Lo, row.Hi, row.Patterns)
		}
	}
}

func TestTable3MatchesPaperCombined(t *testing.T) {
	torus := topology.NewTorus(8, 8)
	rows, err := experiments.Table3(torus, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{ // the paper's combined column
		"ring":             2,
		"nearest neighbor": 4,
		"hypercube":        7,
		"shuffle-exchange": 4,
		"all-to-all":       64,
	}
	wantConns := map[string]int{
		"ring":             128,
		"nearest neighbor": 256,
		"hypercube":        384,
		"shuffle-exchange": 126,
		"all-to-all":       4032,
	}
	for _, row := range rows {
		if row.Conns != wantConns[row.Name] {
			t.Errorf("%s: %d connections, want %d", row.Name, row.Conns, wantConns[row.Name])
		}
		if row.Degrees[3] != want[row.Name] {
			t.Errorf("%s: combined degree %d, paper has %d", row.Name, row.Degrees[3], want[row.Name])
		}
	}
}

func TestTable5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	torus := topology.NewTorus(8, 8)
	rows, err := experiments.Table5(torus, experiments.Table5Config{
		FixedDegrees: []int{1, 5},
		GSSizes:      []int{64},
		P3MSizes:     []int{32},
	})
	if err != nil {
		t.Fatal(err)
	}
	// GS 64, TSCF, P3M 1-5: seven rows.
	if len(rows) != 7 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, row := range rows {
		if len(row.TimedOut) > 0 {
			t.Errorf("%s %s: timed out at degrees %v", row.Pattern, row.Size, row.TimedOut)
		}
		for k, dt := range row.Dynamic {
			if dt <= row.Compiled {
				t.Errorf("%s %s: dynamic K=%d (%d) not slower than compiled (%d)",
					row.Pattern, row.Size, k, dt, row.Compiled)
			}
		}
	}
}

// TestTablesDeterministicAcrossWorkers locks in the sweep-engine contract at
// the table level: every randomized or simulated table must come out
// byte-identical whether its trials ran serially or on a pool.
func TestTablesDeterministicAcrossWorkers(t *testing.T) {
	torus := topology.NewTorus(8, 8)

	t1 := func(workers int) interface{} {
		rows, err := experiments.Table1(torus, experiments.Table1Config{
			Sizes: []int{400, 1600}, Trials: 6, Seed: 1996, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	t2 := func(workers int) interface{} {
		rows, err := experiments.Table2(torus, experiments.Table2Config{
			Redistributions: 20, Seed: 1996, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	t3 := func(workers int) interface{} {
		rows, err := experiments.Table3(torus, workers)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	t5 := func(workers int) interface{} {
		rows, err := experiments.Table5(torus, experiments.Table5Config{
			FixedDegrees: []int{2, 5}, GSSizes: []int{64}, P3MSizes: []int{32}, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	for _, tc := range []struct {
		name string
		run  func(workers int) interface{}
	}{
		{"table1", t1},
		{"table2", t2},
		{"table3", t3},
		{"table5", t5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "table5" && testing.Short() {
				t.Skip("short mode")
			}
			serial := tc.run(1)
			for _, workers := range []int{4, 0} {
				if got := tc.run(workers); !reflect.DeepEqual(serial, got) {
					t.Fatalf("workers=%d: rows differ from the serial run", workers)
				}
			}
		})
	}
}

// TestRunSweepNegativeTrials: a negative count is Sweep's error, not a
// makeslice panic (cctables -trials -1 and ccfault -trials -1 reach here).
func TestRunSweepNegativeTrials(t *testing.T) {
	_, err := experiments.RunSweep(-1, 1, 0, func(int, *rand.Rand) (int, error) { return 0, nil })
	if err == nil {
		t.Fatal("RunSweep accepted a negative trial count")
	}
}

func TestImprovement(t *testing.T) {
	if got := experiments.Improvement(100, 50); got != 50 {
		t.Errorf("Improvement(100, 50) = %f", got)
	}
	if got := experiments.Improvement(0, 0); got != 0 {
		t.Errorf("Improvement(0, 0) = %f", got)
	}
}

func TestAlgorithmNamesAligned(t *testing.T) {
	if len(experiments.Algorithms()) != len(experiments.AlgorithmNames()) {
		t.Fatal("algorithms and names misaligned")
	}
	for i, s := range experiments.Algorithms() {
		if s.Name() != experiments.AlgorithmNames()[i] {
			t.Errorf("column %d: %q vs %q", i, s.Name(), experiments.AlgorithmNames()[i])
		}
	}
}
