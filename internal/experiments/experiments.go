// Package experiments contains one reproduction harness per table and
// figure of the paper's evaluation (Sections 2.2 and 4), run through
// Run. Each returns a Table whose rows mirror the series the paper
// plots. Most tables render from a sweep (sweep.go): a grid of
// simulated cells with schedulers run on each, shared by every table
// that reads the same simulations. The rest are hand-written runners.
//
// Absolute numbers differ from the paper's (the substrate is a
// simulator, not a WARP testbed). What each table must reproduce in
// *shape* it declares as claims: the paper's statements with their
// thresholds, checked against the table's own rows and printed under
// it. EXPERIMENTS.md quotes the recorded verdicts.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
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
	// claims are what the paper says the rows show.
	claims []claim
}

// A claim is one statement the paper makes about a table, its
// threshold written into its words. It holds when its margin, read off
// the table's rows, is at least 0; a claim with several conditions
// returns the smallest of their margins.
type claim struct {
	name, words string
	margin      func(t *Table) float64
}

// check evaluates c on t: "holds" or "FAILS", and the margin.
func (c claim) check(t *Table) (string, float64) {
	m := c.margin(t)
	if m >= 0 {
		return "holds", m
	}
	return "FAILS", m
}

// col returns the named column as numbers. A cell that is not a number,
// or a column t does not have, reads NaN, and a margin that reads it is
// NaN, which fails.
func (t *Table) col(name string) []float64 {
	i := slices.Index(t.Columns, name)
	xs := make([]float64, len(t.Rows))
	for r, row := range t.Rows {
		xs[r] = math.NaN()
		if i >= 0 {
			if v, err := strconv.ParseFloat(row[i], 64); err == nil {
				xs[r] = v
			}
		}
	}
	return xs
}

// every is the smallest margin f(r) over the rows r: a condition that
// must hold in every row.
func (t *Table) every(f func(r int) float64) float64 {
	m := math.Inf(1)
	for r := range t.Rows {
		m = min(m, f(r))
	}
	return m
}

// last is the final element of xs: the far end of a table's axis.
func last(xs []float64) float64 { return xs[len(xs)-1] }

// diff is the smallest difference a[r] - b[r] of columns a and b over
// the rows r: at least 0 when a is at or above b in every row.
func (t *Table) diff(a, b string) float64 {
	x, y := t.col(a), t.col(b)
	return t.every(func(r int) float64 { return x[r] - y[r] })
}

// above is the margin of a > b for cells rendered to three decimals: a
// must lead b by one unit in the last place. It counts in thousandths,
// so equal cells fail and a one-unit lead holds exactly.
func above(a, b float64) float64 { return math.Round(1000*(a-b))/1000 - 0.001 }

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
	for _, c := range t.claims {
		outcome, m := c.check(t)
		fmt.Fprintf(w, "claim %s: %s (%+.3f) — %s\n", c.name, outcome, m, c.words)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}

// experiment is one table: table renders it from the sweep named
// sweep (a key of sweeps), or run produces it by hand.
type experiment struct {
	id    string
	sweep string
	table func(Options, *result) *Table
	run   func(Options) (*Table, error)
}

// sweeps declares every shared simulation grid by name.
var sweeps = map[string]func(Options) *sweep{
	"motivation": motivationSweep,
	"testbed-1":  func(o Options) *sweep { return testbedSweep(o, 1) },
	"testbed-2":  func(o Options) *sweep { return testbedSweep(o, 2) },
	"perfect":    perfectSweep,
	"ues":        ueSweep,
	"mimo":       mimoSweep,
	"dl":         dlSweep,
	"noma":       nomaSweep,
	"fairness":   fairnessSweep,
	"chaos":      chaosSweep,
}

// experimentTable lists every experiment once, in run order.
var experimentTable = []experiment{
	{id: "fig4a", sweep: "motivation", table: fig4a},
	{id: "fig4b", sweep: "motivation", table: fig4b},
	{id: "fig4c", run: fig4c},
	{id: "fig10", sweep: "testbed-1", table: fig10},
	{id: "fig11", sweep: "testbed-2", table: fig11},
	{id: "fig12", sweep: "testbed-1", table: fig12},
	{id: "fig13", sweep: "testbed-2", table: fig13},
	{id: "fig14a", run: fig14a},
	{id: "fig14b", run: fig14b},
	{id: "fig15", sweep: "perfect", table: fig15},
	{id: "fig16", sweep: "ues", table: fig16},
	{id: "fig17", sweep: "mimo", table: fig17},
	{id: "fig18", sweep: "mimo", table: fig18},
	{id: "overhead", run: overhead},
	{id: "ablation", run: ablation},
	{id: "dl", sweep: "dl", table: dlTable},
	{id: "skewed", run: skewed},
	{id: "noma", sweep: "noma", table: nomaTable},
	{id: "fairness", sweep: "fairness", table: fairnessTable},
	{id: "fractional", run: fractional},
	{id: "chaos", sweep: "chaos", table: chaosTable},
}

// IDs returns the experiment identifiers in run order.
func IDs() []string {
	ids := make([]string, len(experimentTable))
	for i, e := range experimentTable {
		ids[i] = e.id
	}
	return ids
}

// Run runs the experiments named by ids and passes each table to emit as
// soon as it is ready, in run order whatever the order of ids. A sweep
// runs at most once per call: every table that reads it renders from
// that one run, so a table is the same whether it runs alone or with
// the others.
func Run(opts Options, ids []string, emit func(*Table) error) error {
	for _, id := range ids {
		if !slices.Contains(IDs(), id) {
			return fmt.Errorf("unknown experiment %q (known: %s)", id, strings.Join(IDs(), " "))
		}
	}
	opts = opts.withDefaults()
	ran := map[string]*result{}
	for _, e := range experimentTable {
		if !slices.Contains(ids, e.id) {
			continue
		}
		tbl, err := e.build(opts, ran)
		if err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		if err := emit(tbl); err != nil {
			return err
		}
	}
	return nil
}

// build produces e's table, running its sweep unless ran holds it.
func (e experiment) build(opts Options, ran map[string]*result) (*Table, error) {
	if e.run != nil {
		return e.run(opts)
	}
	if ran[e.sweep] == nil {
		res, err := sweeps[e.sweep](opts).run(opts)
		if err != nil {
			return nil, err
		}
		ran[e.sweep] = res
	}
	return e.table(opts, ran[e.sweep]), nil
}
