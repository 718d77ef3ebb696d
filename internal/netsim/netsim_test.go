package netsim

import (
	"math"
	"reflect"
	"testing"

	"blu/internal/blueprint"
	"blu/internal/sim"
	"blu/internal/stats"
)

func TestRunBatchSmall(t *testing.T) {
	results, err := RunBatch(BatchConfig{
		Topologies: 10,
		NodeSteps:  []int{5, 10},
		Subframes:  6000,
		Seed:       4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 10 {
		t.Fatalf("got %d results", len(results))
	}
	var accs []float64
	for i, r := range results {
		if r.Index != i {
			t.Errorf("result %d has index %d", i, r.Index)
		}
		if r.NumUE != 5 && r.NumUE != 10 {
			t.Errorf("unexpected node count %d", r.NumUE)
		}
		if r.Accuracy < 0 || r.Accuracy > 1 {
			t.Errorf("accuracy %v out of range", r.Accuracy)
		}
		accs = append(accs, r.Accuracy)
	}
	// Small topologies with long traces should infer well on average.
	if mean := stats.Mean(accs); mean < 0.7 {
		t.Errorf("mean accuracy %v too low for small topologies", mean)
	}
}

func TestRunBatchDeterministic(t *testing.T) {
	cfg := BatchConfig{Topologies: 4, NodeSteps: []int{5}, Subframes: 3000, Seed: 8}
	a, err := RunBatch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunBatch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Accuracy != b[i].Accuracy || a[i].NumHiddenTerminals != b[i].NumHiddenTerminals {
			t.Fatalf("batch not deterministic at %d", i)
		}
	}
}

// TestRunBatchWorkersDeterministic requires the batch results to be
// identical at every Workers setting: each topology is seeded from
// (Seed, index) and lands in its batch-order slot, so the worker count
// only changes wall-clock time.
func TestRunBatchWorkersDeterministic(t *testing.T) {
	base := BatchConfig{Topologies: 6, NodeSteps: []int{5, 10}, Subframes: 2000, Seed: 15}
	seqCfg := base
	seqCfg.Workers = 1
	seq, err := RunBatch(seqCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{0, 3, 8} {
		cfg := base
		cfg.Workers = w
		got, err := RunBatch(cfg)
		if err != nil {
			t.Fatalf("Workers=%d: %v", w, err)
		}
		if !reflect.DeepEqual(seq, got) {
			t.Errorf("Workers=%d batch diverges from sequential", w)
		}
	}
}

func TestMeasureFromMasksConsistent(t *testing.T) {
	cell, err := sim.New(sim.Config{
		Scenario:  sim.NewTestbedScenario(6, 9, 71),
		Subframes: 5000,
		Seed:      71,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := MeasureFromMasks(cell)
	if err := m.Validate(1e-9); err != nil {
		t.Fatalf("measurements inconsistent: %v", err)
	}
	// Marginals equal the raw mask rates (up to clamping floor).
	for i := 0; i < 6; i++ {
		hits := 0
		for sf := 0; sf < 5000; sf++ {
			if cell.AccessMask(sf).Has(i) {
				hits++
			}
		}
		want := float64(hits) / 5000
		if want < 1e-4 {
			want = 1e-4
		}
		if math.Abs(m.P[i]-want) > 1e-9 {
			t.Errorf("p(%d) = %v, mask rate %v", i, m.P[i], want)
		}
	}
}

func TestRunBatchSeedStrideIndependence(t *testing.T) {
	// Regression: per-topology RNGs used to be seeded additively as
	// cfg.Seed + idx*0x9E3779B97F4A7C15, so a batch whose seed differs by
	// one stride replayed the other batch's topology stream shifted by an
	// index: b[idx] under seed S+stride equaled a[idx+1] under seed S.
	const stride = 0x9E3779B97F4A7C15
	cfg := BatchConfig{Topologies: 3, NodeSteps: []int{5}, Subframes: 2000, Seed: 42}
	a, err := RunBatch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed += stride
	b, err := RunBatch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	shifted := 0
	for i := 0; i+1 < len(a); i++ {
		want := a[i+1]
		got := b[i]
		got.Index, want.Index = 0, 0
		if reflect.DeepEqual(got, want) {
			shifted++
		}
	}
	if shifted == len(a)-1 {
		t.Fatal("seed+stride batch replays the base batch's topology stream shifted by one index")
	}
}

// measureFromMasksReference is MeasureFromMasks' original hand-counted
// loop, kept as the oracle the estimator-backed version must match bit
// for bit.
func measureFromMasksReference(cell *sim.Cell) *blueprint.Measurements {
	n := cell.NumUE()
	total := cell.Subframes()
	countI := make([]int, n)
	countIJ := make([][]int, n)
	for i := range countIJ {
		countIJ[i] = make([]int, n)
	}
	for sf := 0; sf < total; sf++ {
		mask := cell.AccessMask(sf)
		mask.ForEach(func(i int) {
			countI[i]++
			mask.ForEach(func(j int) {
				if j > i {
					countIJ[i][j]++
				}
			})
		})
	}
	m := blueprint.NewMeasurements(n)
	for i := 0; i < n; i++ {
		m.P[i] = float64(countI[i]) / float64(total)
		for j := i + 1; j < n; j++ {
			m.SetPair(i, j, float64(countIJ[i][j])/float64(total))
		}
	}
	m.Clamp(1e-4)
	return m
}

func TestMeasureFromMasksMatchesReference(t *testing.T) {
	for _, seed := range []uint64{71, 72} {
		cell, err := sim.New(sim.Config{
			Scenario:  sim.NewTestbedScenario(8, 12, seed),
			Subframes: 4000,
			Seed:      seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := MeasureFromMasks(cell), measureFromMasksReference(cell); !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: estimator-backed measurements differ from the reference loop", seed)
		}
	}
}
