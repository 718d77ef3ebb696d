// Package experiments contains one reproduction harness per table and
// figure of the paper's evaluation (Sections 2.2 and 4). Each harness
// builds its workload, runs the relevant schedulers/inference, and
// returns a Table whose rows mirror the series the paper plots.
//
// Absolute numbers differ from the paper's (the substrate is a
// simulator, not a WARP testbed); the quantities each harness is
// expected to reproduce in *shape* are recorded in EXPERIMENTS.md.
package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"

	"blu/internal/parallel"
)

// Options tunes an experiment run.
type Options struct {
	// Seed makes runs reproducible.
	Seed uint64
	// Scale in (0, 1] shrinks workloads (subframes, topology counts)
	// proportionally; 1 is the paper-scale run. Benchmarks use small
	// scales.
	Scale float64
	// Parallelism bounds the worker goroutines running a figure's
	// independent trials (0 = GOMAXPROCS, 1 = sequential). Every trial
	// owns a result slot indexed by its trial position and an rng stream
	// derived from (Seed, trial index), so the produced tables are
	// identical at every setting.
	Parallelism int
	// Faults selects the fault scenarios the chaos experiment injects,
	// as a comma-separated list of internal/faults preset names (empty =
	// all presets). Other experiments ignore it.
	Faults string
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 || o.Scale > 1 {
		o.Scale = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// forEachTrial fans a figure's n independent trials out over the
// configured parallelism. fn(i) must write only result slots owned by
// trial i and draw randomness only from streams derived from
// (Seed, i), which keeps every table byte-identical to the sequential
// run.
func (o Options) forEachTrial(n int, fn func(i int) error) error {
	return parallel.ForEach(context.Background(), o.Parallelism, n, fn)
}

// scaled returns n scaled down, with a floor.
func (o Options) scaled(n, floor int) int {
	v := int(float64(n) * o.Scale)
	if v < floor {
		v = floor
	}
	return v
}

// Table is one reproduced figure/table: labeled columns and formatted
// rows, printable as the paper's series.
type Table struct {
	// ID is the experiment identifier, e.g. "fig15".
	ID string
	// Title describes what the paper's figure shows.
	Title string
	// Columns are the column headers.
	Columns []string
	// Rows hold the formatted cells.
	Rows [][]string
	// Notes records the shape expectations and any caveats.
	Notes []string
}

// AddRow appends a formatted row; values are rendered with %v, floats
// with three decimals.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case float32:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], cell)
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	printRow(t.Columns)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}

// Runner is the registry signature every experiment implements.
type Runner func(Options) (*Table, error)

// experimentTable lists every experiment once, in run order.
var experimentTable = []struct {
	id  string
	run Runner
}{
	{"fig4a", Fig4a},
	{"fig4b", Fig4b},
	{"fig4c", Fig4c},
	{"fig10", Fig10},
	{"fig11", Fig11},
	{"fig12", Fig12},
	{"fig13", Fig13},
	{"fig14a", Fig14a},
	{"fig14b", Fig14b},
	{"fig15", Fig15},
	{"fig16", Fig16},
	{"fig17", Fig17},
	{"fig18", Fig18},
	{"overhead", Overhead},
	{"ablation", Ablation},
	{"dl", DL},
	{"skewed", Skewed},
	{"noma", NOMA},
	{"fairness", Fairness},
	{"fractional", Fractional},
	{"chaos", Chaos},
}

// Registry maps experiment IDs to their runners.
func Registry() map[string]Runner {
	reg := make(map[string]Runner, len(experimentTable))
	for _, e := range experimentTable {
		reg[e.id] = e.run
	}
	return reg
}

// IDs returns the experiment identifiers in run order.
func IDs() []string {
	ids := make([]string, len(experimentTable))
	for i, e := range experimentTable {
		ids[i] = e.id
	}
	return ids
}
