package topology

import (
	"sort"
	"testing"

	"blu/internal/blueprint"
	"blu/internal/rng"
)

// LocalIndex returns the cell-local index of global UE id g, or -1.
func (c *CellView) LocalIndex(g int) int {
	i := sort.SearchInts(c.Members, g)
	if i < len(c.Members) && c.Members[i] == g {
		return i
	}
	return -1
}

// BorderUEs returns the global ids of every UE audible in two or more
// cells, ascending.
func (ms *MultiScenario) BorderUEs() []int {
	var out []int
	for g := range ms.UEs {
		if len(ms.AudibleIn[g]) >= 2 {
			out = append(out, g)
		}
	}
	return out
}

// CellGroundTruth returns cell c's ground-truth blueprint over its
// local UE indexing (see Scenario.GroundTruth). airtime follows the
// shared station indexing; nil uses q = 0.5 everywhere.
func (ms *MultiScenario) CellGroundTruth(c int, airtime []float64) *blueprint.Topology {
	return ms.Cells[c].Scenario.GroundTruth(airtime)
}

func TestMultiScenarioDefaults(t *testing.T) {
	ms, err := NewMultiScenario(3, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms.Cells) != 3 {
		t.Fatalf("cells = %d, want 3", len(ms.Cells))
	}
	for c, cv := range ms.Cells {
		if cv.ID != CellID(c) {
			t.Errorf("cell %d id %q", c, cv.ID)
		}
		if len(cv.Members) != len(cv.Scenario.UEs) {
			t.Fatalf("cell %d: %d members vs %d scenario UEs", c, len(cv.Members), len(cv.Scenario.UEs))
		}
		// Members sorted ascending and positions consistent with the global
		// layout — two independent builders must agree on every local index.
		for i, g := range cv.Members {
			if i > 0 && cv.Members[i-1] >= g {
				t.Fatalf("cell %d members not strictly ascending: %v", c, cv.Members)
			}
			if cv.Scenario.UEs[i] != ms.UEs[g] {
				t.Fatalf("cell %d local UE %d position diverges from global %d", c, i, g)
			}
			if cv.LocalIndex(g) != i {
				t.Fatalf("cell %d LocalIndex(%d) = %d, want %d", c, g, cv.LocalIndex(g), i)
			}
		}
		if !ms.Floor.Contains(cv.ENB) {
			t.Errorf("eNB %d outside floor", c)
		}
	}
	for g, p := range ms.UEs {
		if !ms.Floor.Contains(p) {
			t.Errorf("UE %d at %v outside floor", g, p)
		}
		owner := ms.Owner[g]
		found := false
		for _, c := range ms.AudibleIn[g] {
			if c == owner {
				found = true
			}
		}
		if !found {
			t.Errorf("UE %d: owner %d not in audible set %v", g, owner, ms.AudibleIn[g])
		}
	}
	for _, p := range ms.Stations {
		if !ms.Floor.Contains(p) {
			t.Errorf("station at %v outside floor", p)
		}
	}
}

// TestMultiScenarioBorderUEs pins the defining property of the
// multi-cell regime: border UEs exist and each is a member of every
// cell that can hear it, so the same physical client appears in two
// cells' client sets.
func TestMultiScenarioBorderUEs(t *testing.T) {
	ms, err := NewMultiScenario(3, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	borders := ms.BorderUEs()
	if len(borders) < 2 { // 3-cell row has 2 edges, 1 border UE each
		t.Fatalf("only %d border UEs, want >= 2", len(borders))
	}
	for _, g := range borders {
		if len(ms.AudibleIn[g]) < 2 {
			t.Fatalf("border UE %d audible in %v", g, ms.AudibleIn[g])
		}
		for _, c := range ms.AudibleIn[g] {
			if ms.Cells[c].LocalIndex(g) < 0 {
				t.Fatalf("border UE %d missing from cell %d members", g, c)
			}
		}
	}
}

// TestMultiScenarioSharedHiddenTerminals checks the cross-cell ground
// truth: at the default spacing, a station pinned near a cell boundary
// is hidden from both adjacent eNBs while blocking the border UE there,
// so both cells' ground truths contain an HT whose client sets map to
// overlapping global ids — the duplicated inference work the blueprint
// exchange collapses.
func TestMultiScenarioSharedHiddenTerminals(t *testing.T) {
	ms, err := NewMultiScenario(3, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	globalSets := make([]map[int]bool, len(ms.Cells))
	for c := range ms.Cells {
		globalSets[c] = map[int]bool{}
		truth := ms.CellGroundTruth(c, nil)
		for _, ht := range truth.HTs {
			ht.Clients.ForEach(func(i int) {
				globalSets[c][ms.Cells[c].Members[i]] = true
			})
		}
	}
	shared := 0
	for a := 0; a < len(ms.Cells); a++ {
		for b := a + 1; b < len(ms.Cells); b++ {
			for g := range globalSets[a] {
				if globalSets[b][g] {
					shared++
				}
			}
		}
	}
	if shared == 0 {
		t.Fatal("no UE is blocked by hidden terminals in two cells; border geometry is broken")
	}
}

func TestMultiScenarioDeterministic(t *testing.T) {
	a, err := NewMultiScenario(4, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewMultiScenario(4, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.UEs) != len(b.UEs) || len(a.Stations) != len(b.Stations) {
		t.Fatal("layouts differ in size")
	}
	for i := range a.UEs {
		if a.UEs[i] != b.UEs[i] {
			t.Fatalf("UE %d diverges", i)
		}
	}
	for i := range a.Stations {
		if a.Stations[i] != b.Stations[i] {
			t.Fatalf("station %d diverges", i)
		}
	}
}

func TestMultiScenarioValidation(t *testing.T) {
	for _, cells := range []int{0, -1} {
		if _, err := NewMultiScenario(cells, rng.New(1)); err == nil {
			t.Errorf("%d cells accepted", cells)
		}
	}
}
