package experiments

import "testing"

// runTables runs the named experiments in one call and returns their
// tables in run order.
func runTables(t *testing.T, opts Options, ids ...string) []*Table {
	t.Helper()
	var tables []*Table
	err := Run(opts, ids, func(tbl *Table) error {
		tables = append(tables, tbl)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return tables
}

// TestExperimentTablesDeterministicAcrossParallelism runs full figures
// at a small scale under Parallelism 1 and 8 and requires the rendered
// tables, claims included, to be identical. This is the end-to-end face
// of the fan-out contract: every trial owns its result slot and its
// (Seed, trial) rng stream, so worker count and scheduling order must
// be invisible in the output.
func TestExperimentTablesDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("full-figure determinism sweep")
	}
	// skewed exercises blueprint inference (the tentpole's parallel
	// multi-start) inside a fanned-out figure; fig4a the scheduler and
	// simulator; dl and noma the downlink and NOMA sweeps; fig10 with
	// fig12 two tables rendered from one shared sweep.
	ids := []string{"fig4a", "fig10", "fig12", "dl", "skewed", "noma"}
	seq := runTables(t, Options{Seed: 3, Scale: 0.05, Parallelism: 1}, ids...)
	par := runTables(t, Options{Seed: 3, Scale: 0.05, Parallelism: 8}, ids...)
	if len(seq) != len(ids) || len(par) != len(ids) {
		t.Fatalf("got %d and %d tables, want %d", len(seq), len(par), len(ids))
	}
	for i, id := range ids {
		if seq[i].String() != par[i].String() {
			t.Errorf("%s: table diverges across parallelism\nsequential:\n%s\nparallel:\n%s",
				id, seq[i], par[i])
		}
	}
}

// TestExperimentAloneMatchesFullRun checks that a table rendered from a
// shared sweep does not depend on which other tables the call asked
// for: each one run alone is byte-identical to the same table from a
// run of every experiment.
func TestExperimentAloneMatchesFullRun(t *testing.T) {
	if testing.Short() {
		t.Skip("shared-sweep sweep")
	}
	full, err := smallScaleTables()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"fig4a", "fig4b", "fig10", "fig11", "fig12", "fig13", "fig17", "fig18"} {
		alone := runTables(t, Options{Seed: 3, Scale: 0.05}, id)
		if got, want := alone[0].String(), full[id].String(); got != want {
			t.Errorf("%s alone:\n%s\nfrom the full run:\n%s", id, got, want)
		}
	}
}
