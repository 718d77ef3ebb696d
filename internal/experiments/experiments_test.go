package experiments

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"blu/internal/parallel"
)

// goldenDigests pins the FNV-1a digest of every experiment's table at
// Seed 3, Scale 0.05, rendered by tableDigest. A change that moves an
// experiment's numbers re-pins its digest and names the experiment in
// CHANGES.md.
var goldenDigests = map[string]string{
	"fig4a":      "4092b04befedffbf",
	"fig4b":      "4b1c0d6e2e02d7f7",
	"fig4c":      "710a6184d7d92821",
	"fig10":      "24d07784e2e6b207",
	"fig11":      "38957828200c198e",
	"fig12":      "12179ab125de0a0e",
	"fig13":      "a87071c4b587428d",
	"fig14a":     "b5faae0aa98d4e06",
	"fig14b":     "92db4a281c0f1b41",
	"fig15":      "4fc94614ba84fbb6",
	"fig16":      "646534b954273830",
	"fig17":      "743601d40aa2449a",
	"fig18":      "3ed5a714116435b0",
	"overhead":   "3aad2570187dbc6d",
	"ablation":   "6b8b4e2b1aa3b61d",
	"dl":         "f322d086a09472fc",
	"skewed":     "3beb56833269edcc",
	"noma":       "b6863b0aaf19118a",
	"fairness":   "0e38b0ae9db97978",
	"fractional": "cc9a7ce83a70bb1b",
	"chaos":      "037fbb524722c302",
}

// tableDigest is the FNV-1a digest of the table's ID, title, columns
// and rows as rendered, without its wall-time columns (ablation's
// mean_ms), which differ run to run.
func tableDigest(tbl *Table) string {
	stable := Table{ID: tbl.ID, Title: tbl.Title, Columns: tbl.Columns, Rows: tbl.Rows}
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
var smallScaleTables = sync.OnceValues(func() (map[string]*Table, error) { return smallScale(3) })

// smallScale runs every experiment at seed and Scale 0.05, by ID.
func smallScale(seed uint64) (map[string]*Table, error) {
	tables := map[string]*Table{}
	err := Run(Options{Seed: seed, Scale: 0.05}, IDs(), func(tbl *Table) error {
		tables[tbl.ID] = tbl
		return nil
	})
	return tables, err
}

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

// goldenClaims pins every claim's outcome at Seeds 1, 3 and 4242,
// Scale 0.05, keyed ID/name. A change that moves an outcome re-pins it
// and names the claim in CHANGES.md, as for a digest.
var goldenClaims = map[string]string{
	"fig4a/loss-grows":            "holds holds holds",
	"fig4b/full-collapses":        "holds holds holds",
	"fig4c/lte-over-2x":           "holds holds holds",
	"fig10/gain-grows":            "holds holds holds",
	"fig10/gain-at-3":             "holds holds holds",
	"fig11/gain-grows":            "holds holds holds",
	"fig11/gain-at-3":             "FAILS holds holds",
	"fig12/gain-grows":            "holds holds holds",
	"fig12/gain-at-3":             "holds holds holds",
	"fig13/gain-grows":            "holds holds holds",
	"fig13/gain-at-3":             "FAILS holds holds",
	"fig14a/median-acc":           "holds holds holds",
	"fig14a/ge90-share":           "holds holds holds",
	"fig14b/median-acc":           "FAILS FAILS FAILS",
	"fig14b/ge90-share":           "FAILS FAILS FAILS",
	"fig15/blu-over-pf":           "holds holds holds",
	"fig15/blu-over-aa":           "holds holds holds",
	"fig15/aa-not-above-pf":       "FAILS FAILS FAILS",
	"fig16/inferred-near-perfect": "FAILS holds holds",
	"fig16/gain-grows":            "holds holds FAILS",
	"fig16/gain-at-24":            "holds holds FAILS",
	"fig17/blu-grows-with-m":      "holds holds holds",
	"fig17/blu-at-m4":             "holds holds holds",
	"fig17/blu-over-aa":           "holds holds holds",
	"fig17/aa-near-1x":            "FAILS FAILS FAILS",
	"fig18/pf-half-idle":          "holds FAILS FAILS",
	"fig18/blu-over-pf":           "holds holds holds",
	"fig18/siso-gain":             "holds holds holds",
	"fig18/aa-no-better":          "FAILS FAILS FAILS",
	"overhead/alg1-near-fmin":     "holds holds holds",
	"overhead/joint-explodes":     "holds holds holds",
	"ablation/repair-vs-mcmc":     "holds holds holds",
	"dl/aa-cuts-collisions":       "holds holds holds",
	"dl/aa-no-loss":               "holds holds holds",
	"skewed/pairs-degrade":        "holds holds holds",
	"skewed/triples-recover":      "FAILS holds FAILS",
	"noma/fewer-collisions":       "holds holds holds",
	"noma/no-loss":                "holds holds holds",
	"fairness/pf-utility-kept":    "holds holds holds",
	"fractional/binary-exact":     "holds holds holds",
	"fractional/p-error-small":    "holds holds holds",
	"chaos/graceful":              "holds holds holds",
	"chaos/recovers":              "holds holds holds",
}

// claimRuns runs every experiment at Seeds 1, 3 and 4242, Scale 0.05,
// for the claim tests; seed 3 is smallScaleTables. The seeds run side
// by side: one run alone leaves cores idle on its longest sweep.
var claimRuns = sync.OnceValues(func() ([]map[string]*Table, error) {
	seeds := []uint64{1, 3, 4242}
	runs := make([]map[string]*Table, len(seeds))
	return runs, parallel.ForEach(context.Background(), len(seeds), len(seeds), func(i int) (err error) {
		if seeds[i] == 3 {
			runs[i], err = smallScaleTables()
		} else {
			runs[i], err = smallScale(seeds[i])
		}
		return err
	})
})

// checkClaims fails when a claim of the tables ids has an outcome at
// claimRuns' seeds other than its pin, or is not pinned, and returns
// how many claims it checked. The pins hold on amd64 only, like the
// digests.
func checkClaims(t *testing.T, ids ...string) int {
	t.Helper()
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("claim outcomes skipped on %s (FP fusing may flip near-ties)", runtime.GOARCH)
	}
	runs, err := claimRuns()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, id := range ids {
		for i, c := range runs[0][id].claims {
			var outcomes, margins []string
			for _, tables := range runs {
				outcome, m := tables[id].claims[i].check(tables[id])
				outcomes, margins = append(outcomes, outcome), append(margins, fmt.Sprintf("%+.3f", m))
			}
			if key := id + "/" + c.name; strings.Join(outcomes, " ") != goldenClaims[key] {
				t.Errorf("%s at seeds 1, 3, 4242: %s, margins %s; pinned %q", key, outcomes, margins, goldenClaims[key])
			}
			n++
		}
	}
	return n
}

// TestClaims checks every table's claims at three seeds, at one small
// scale for all of them. A claim that holds at paper scale but not on
// small samples is pinned FAILS where it fails.
func TestClaims(t *testing.T) {
	if n := checkClaims(t, IDs()...); n != len(goldenClaims) {
		t.Errorf("%d claims declared, %d pinned", n, len(goldenClaims))
	}
}

// The figure tests keep the shape tests' names; each checks its table's
// pins on TestClaims' runs, at no seed or scale of its own.
func TestFig4aShapeLossGrowsWithHTs(t *testing.T)         { checkClaims(t, "fig4a") }
func TestFig4bShapeFullOccupancyCollapses(t *testing.T)   { checkClaims(t, "fig4b") }
func TestFig4cShapeLTEAtLeastTwiceWiFi(t *testing.T)      { checkClaims(t, "fig4c") }
func TestFig10ShapeGainGrowsWithDensity(t *testing.T)     { checkClaims(t, "fig10") }
func TestFig14aShapeHighAccuracy(t *testing.T)            { checkClaims(t, "fig14a") }
func TestFig15ShapeBLUWins(t *testing.T)                  { checkClaims(t, "fig15") }
func TestFig18ShapeBLUUtilization(t *testing.T)           { checkClaims(t, "fig18") }
func TestOverheadShape(t *testing.T)                      { checkClaims(t, "overhead") }
func TestAblationShape(t *testing.T)                      { checkClaims(t, "ablation") }
func TestDLShapeAccessAwareCutsCollisions(t *testing.T)   { checkClaims(t, "dl") }
func TestSkewedShapeTriplesRecoverAccuracy(t *testing.T)  { checkClaims(t, "skewed") }
func TestNOMAShapeRecoversCollisions(t *testing.T)        { checkClaims(t, "noma") }
func TestFairnessShapePFUtilityPreserved(t *testing.T)    { checkClaims(t, "fairness") }
func TestFractionalShapeGracefulDegradation(t *testing.T) { checkClaims(t, "fractional") }
