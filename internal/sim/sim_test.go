package sim

import (
	"math"
	"testing"

	"blu/internal/blueprint"
	"blu/internal/lte"
	"blu/internal/sched"
	"blu/internal/wifi"
)

// Airtime returns station k's channel-busy fraction (its q(k) ground
// truth up to CCA-window effects).
func (c *Cell) Airtime(k int) float64 { return c.airtime[k] }

func testCell(t *testing.T, nUE, nHT, m, sfs int, seed uint64) *Cell {
	t.Helper()
	cell, err := New(Config{
		Scenario:  NewTestbedScenario(nUE, nHT, seed),
		M:         m,
		Subframes: sfs,
		Seed:      seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cell
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing scenario accepted")
	}
}

func TestTestbedScenarioProducesHiddenTerminals(t *testing.T) {
	cell := testCell(t, 8, 12, 1, 500, 42)
	gt := cell.GroundTruth()
	if len(gt.HTs) == 0 {
		t.Fatal("testbed scenario produced no hidden terminals")
	}
	blockedUEs := blueprint.ClientSet(0)
	for _, ht := range gt.HTs {
		blockedUEs = blockedUEs.Union(ht.Clients)
	}
	if blockedUEs.Count() < 4 {
		t.Errorf("only %d UEs affected by interference", blockedUEs.Count())
	}
}

func TestAccessMaskMatchesGroundTruthRates(t *testing.T) {
	cell := testCell(t, 6, 9, 1, 20000, 7)
	gt := cell.GroundTruth()
	for i := 0; i < 6; i++ {
		hits := 0
		for sf := 0; sf < cell.Subframes(); sf++ {
			if cell.AccessMask(sf).Has(i) {
				hits++
			}
		}
		measured := float64(hits) / float64(cell.Subframes())
		// Ground truth uses airtime; the CCA window inflates blocking a
		// little, so allow a loose band.
		want := gt.AccessProb(i)
		if math.Abs(measured-want) > 0.15 {
			t.Errorf("UE %d access rate %v far from airtime prediction %v", i, measured, want)
		}
	}
}

func TestStepConsistentWithMask(t *testing.T) {
	cell := testCell(t, 6, 9, 1, 1000, 3)
	for sf := 0; sf < 50; sf++ {
		sch := lte.NewSchedule(cell.Env().NumRB)
		for b := range sch.RB {
			sch.RB[b] = []int{b % 6}
		}
		results := cell.Step(sf, sch)
		if results == nil {
			continue // eNB deferred
		}
		mask := cell.AccessMask(sf)
		for b, res := range results {
			ue := b % 6
			blocked := res.Outcomes[0] == lte.OutcomeBlocked
			if blocked == mask.Has(ue) {
				t.Fatalf("sf %d RB %d UE %d: outcome %v vs mask %v",
					sf, b, ue, res.Outcomes[0], mask.Has(ue))
			}
		}
	}
}

func TestStepCollisionWhenOverScheduledBothClear(t *testing.T) {
	// No interference: both over-scheduled UEs always transmit and
	// collide on a SISO eNB.
	cell := testCell(t, 4, 0, 1, 100, 5)
	sch := lte.NewSchedule(cell.Env().NumRB)
	for b := range sch.RB {
		sch.RB[b] = []int{0, 1}
	}
	results := cell.Step(0, sch)
	if results == nil {
		t.Fatal("eNB deferred with no stations")
	}
	for b, res := range results {
		for i, o := range res.Outcomes {
			if o != lte.OutcomeCollision {
				t.Errorf("RB %d UE %d outcome = %v, want collision", b, res.Scheduled[i], o)
			}
		}
	}
}

func TestStepOutOfRange(t *testing.T) {
	cell := testCell(t, 2, 0, 1, 10, 1)
	if cell.Step(-1, lte.NewSchedule(1)) != nil || cell.Step(10, lte.NewSchedule(1)) != nil {
		t.Error("out-of-range subframe executed")
	}
}

func TestRunMetricsAccounting(t *testing.T) {
	cell := testCell(t, 6, 9, 1, 2000, 11)
	pf, err := sched.NewPF(cell.Env())
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	m := Run(cell, pf, 0, 2000, func(sf int, sch *lte.Schedule, res []lte.RBResult) {
		calls++
	})
	if m.Subframes != 2000 || calls != 2000 {
		t.Errorf("subframes %d, observer calls %d", m.Subframes, calls)
	}
	var sum float64
	for _, b := range m.BitsPerUE {
		sum += b
	}
	if math.Abs(sum-m.TotalBits) > 1e-6 {
		t.Errorf("per-UE bits %v != total %v", sum, m.TotalBits)
	}
	wantTput := m.TotalBits / (2000 * 1000)
	if math.Abs(m.ThroughputMbps-wantTput) > 1e-9 {
		t.Errorf("throughput %v, want %v", m.ThroughputMbps, wantTput)
	}
	if m.RBUtilization < 0 || m.RBUtilization > 1 {
		t.Errorf("utilization %v out of range", m.RBUtilization)
	}
	if m.JainFairness <= 0 || m.JainFairness > 1 {
		t.Errorf("Jain %v out of range", m.JainFairness)
	}
	total := 0
	for _, c := range m.Outcomes {
		total += c
	}
	if total == 0 {
		t.Error("no outcomes recorded")
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	run := func() *Metrics {
		cell := testCell(t, 6, 9, 1, 1000, 21)
		pf, err := sched.NewPF(cell.Env())
		if err != nil {
			t.Fatal(err)
		}
		return Run(cell, pf, 0, 1000, nil)
	}
	a, b := run(), run()
	if a.TotalBits != b.TotalBits || a.RBUtilization != b.RBUtilization {
		t.Error("same seed produced different results")
	}
}

func TestPerfectDistributionMatchesMasks(t *testing.T) {
	cell := testCell(t, 5, 8, 1, 5000, 9)
	e := cell.PerfectDistribution()
	// Marginal from the distribution equals the mask rate over all 5000
	// subframes.
	hits := 0
	for sf := 0; sf < 5000; sf++ {
		if cell.AccessMask(sf).Has(2) {
			hits++
		}
	}
	if got, want := e.Marginal(2), float64(hits)/5000; math.Abs(got-want) > 1e-12 {
		t.Errorf("marginal %v vs mask rate %v", got, want)
	}
}

func TestBurstSubframesShareCCA(t *testing.T) {
	cell, err := New(Config{
		Scenario:       NewTestbedScenario(4, 8, 13),
		Subframes:      999,
		BurstSubframes: 3,
		Seed:           13,
	})
	if err != nil {
		t.Fatal(err)
	}
	// All subframes of one burst must share the same access mask.
	for sf := 0; sf < 999; sf += 3 {
		m0 := cell.AccessMask(sf)
		if cell.AccessMask(sf+1) != m0 || cell.AccessMask(sf+2) != m0 {
			t.Fatalf("burst at %d has differing masks", sf)
		}
	}
}

func TestSharedMediumReducesAirtime(t *testing.T) {
	// Stations in one contention domain share the channel; their summed
	// airtime cannot exceed ~1, unlike independent generation.
	sc := NewTestbedScenario(4, 4, 77)
	// Co-locate all stations so they form one domain.
	for k := 1; k < len(sc.Stations); k++ {
		sc.Stations[k] = sc.Stations[0].Add(float64(k), 0)
	}
	mk := func(shared bool) float64 {
		stations := make([]wifi.Station, 4)
		for k := range stations {
			stations[k].Traffic = wifi.Saturated{}
		}
		cell, err := New(Config{
			Scenario:     sc,
			Stations:     stations,
			Subframes:    3000,
			SharedMedium: shared,
			Seed:         3,
		})
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for k := 0; k < 4; k++ {
			sum += cell.Airtime(k)
		}
		return sum
	}
	if indep, shared := mk(false), mk(true); shared > 1.05 || indep < 2 {
		t.Errorf("airtime sums: independent %v, shared %v", indep, shared)
	}
}
