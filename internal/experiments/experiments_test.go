package experiments

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// goldenDigests pins the FNV-1a digest of every experiment's table at
// Seed 3, Scale 0.05, rendered by tableDigest. A change that moves an
// experiment's numbers re-pins its digest and names the experiment in
// CHANGES.md.
var goldenDigests = map[string]string{
	"fig4a":      "4baf5ee3044d03ac",
	"fig4b":      "9a46b833b3c0721a",
	"fig4c":      "7e449ed39105860a",
	"fig10":      "16a1420f34b2c62d",
	"fig11":      "840c169690b2df32",
	"fig12":      "7fe52ee2f2d890b2",
	"fig13":      "e3b110362e37312f",
	"fig14a":     "05461ace697252d5",
	"fig14b":     "fcabb4a46389582e",
	"fig15":      "2ae5c23fa8e3db6f",
	"fig16":      "ee7470df092f84df",
	"fig17":      "d29c742e1909ddbe",
	"fig18":      "9541d067481dabfb",
	"overhead":   "5eccfbe5303e6bc6",
	"ablation":   "a2967e3fcd4d042e",
	"dl":         "bbf1ea25efc9b246",
	"skewed":     "c9c621c5ec3022c2",
	"noma":       "ad30b7b2821733f8",
	"fairness":   "986bac8b49725f06",
	"fractional": "ef03749e96ec76f9",
	"chaos":      "125dca02a5e31c99",
}

// tableDigest is the FNV-1a digest of the rendered table without its
// wall-time columns (ablation's mean_ms), which differ run to run.
func tableDigest(tbl *Table) string {
	stable := *tbl
	if i := slices.Index(tbl.Columns, "mean_ms"); i >= 0 {
		stable.Columns = slices.Delete(slices.Clone(tbl.Columns), i, i+1)
		stable.Rows = nil
		for _, row := range tbl.Rows {
			stable.Rows = append(stable.Rows, slices.Delete(slices.Clone(row), i, i+1))
		}
	}
	h := fnv.New64a()
	h.Write([]byte(stable.String()))
	return fmt.Sprintf("%016x", h.Sum64())
}

// smallScaleTables runs every experiment once, at Seed 3 and Scale
// 0.05, for the tests that read the whole set.
var smallScaleTables = sync.OnceValues(func() (map[string]*Table, error) {
	tables := map[string]*Table{}
	err := Run(Options{Seed: 3, Scale: 0.05}, IDs(), func(tbl *Table) error {
		tables[tbl.ID] = tbl
		return nil
	})
	return tables, err
})

// TestAllExperimentsSmallScale checks every experiment's table for
// structure — present, non-empty, every row as wide as the header — on
// any architecture, including those where the digests are skipped.
func TestAllExperimentsSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	tables, err := smallScaleTables()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			tbl := tables[id]
			if tbl == nil || len(tbl.Rows) == 0 {
				t.Fatalf("missing or empty table: %v", tbl)
			}
			for r, row := range tbl.Rows {
				if len(row) != len(tbl.Columns) {
					t.Errorf("row %d has %d cells for %d columns", r, len(row), len(tbl.Columns))
				}
			}
		})
	}
}

// TestExperimentGoldens fails when an experiment's table digest moves:
// the figures the paper is judged by cannot change silently. The pinned
// digests hold on amd64 only, like the schedule-trace golden (FP fusing
// elsewhere may flip near-ties).
func TestExperimentGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests skipped on %s (FP fusing may flip near-ties)", runtime.GOARCH)
	}
	tables, err := smallScaleTables()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range IDs() {
		if got := tableDigest(tables[id]); got != goldenDigests[id] {
			t.Errorf("%s: table digest %s, golden %q — the experiment's numbers moved:\n%s",
				id, got, goldenDigests[id], tables[id])
		}
	}
}
