package blueprint

import (
	"math"
	"testing"

	"blu/internal/rng"
)

// Clone returns a deep copy of the topology.
func (t *Topology) Clone() *Topology {
	c := &Topology{N: t.N, HTs: make([]HiddenTerminal, len(t.HTs))}
	copy(c.HTs, t.HTs)
	return c
}

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// fig1Topology builds a topology shaped like the paper's Fig 1 example:
// a cell with clients affected by distinct and shared hidden terminals.
func fig1Topology() *Topology {
	return &Topology{
		N: 4,
		HTs: []HiddenTerminal{
			{Q: 0.30, Clients: NewClientSet(0)},       // H1 → client 1
			{Q: 0.20, Clients: NewClientSet(1, 2)},    // H2 → clients 2,3
			{Q: 0.15, Clients: NewClientSet(2, 3)},    // H3 → clients 3,4
			{Q: 0.10, Clients: NewClientSet(0, 1, 3)}, // H4 wide
		},
	}
}

func TestAccessProbProduct(t *testing.T) {
	topo := fig1Topology()
	// Client 0 is hit by H1 (0.30) and H4 (0.10).
	want := (1 - 0.30) * (1 - 0.10)
	if got := topo.AccessProb(0); !almostEqual(got, want, 1e-12) {
		t.Errorf("AccessProb(0) = %v, want %v", got, want)
	}
	// Client 2 is hit by H2 and H3.
	want = (1 - 0.20) * (1 - 0.15)
	if got := topo.AccessProb(2); !almostEqual(got, want, 1e-12) {
		t.Errorf("AccessProb(2) = %v, want %v", got, want)
	}
}

func TestPairProbSharesCommonTerminals(t *testing.T) {
	topo := fig1Topology()
	// Clients 1 and 2 share H2; client 1 also sees H4, client 2 sees H3.
	want := (1 - 0.20) * (1 - 0.10) * (1 - 0.15)
	if got := topo.PairProb(1, 2); !almostEqual(got, want, 1e-12) {
		t.Errorf("PairProb(1,2) = %v, want %v", got, want)
	}
	// Pair prob >= product of individuals (positive correlation).
	if topo.PairProb(1, 2) < topo.AccessProb(1)*topo.AccessProb(2)-1e-12 {
		t.Error("pair probability below independent product")
	}
}

func TestClearProbMatchesMonteCarlo(t *testing.T) {
	topo := fig1Topology()
	set := NewClientSet(0, 2, 3)
	want := topo.ClearProb(set)
	r := rng.New(7)
	const trials = 200000
	hits := 0
	for n := 0; n < trials; n++ {
		clear := true
		for _, ht := range topo.HTs {
			if r.Bool(ht.Q) && !ht.Clients.Intersect(set).Empty() {
				clear = false
			}
		}
		if clear {
			hits++
		}
	}
	got := float64(hits) / trials
	if !almostEqual(got, want, 0.01) {
		t.Errorf("Monte Carlo ClearProb = %v, analytic %v", got, want)
	}
}

func TestConditionRemovesAdjacentTerminals(t *testing.T) {
	topo := fig1Topology()
	cond := topo.Condition(NewClientSet(0))
	// H1 and H4 touch client 0 and must be gone.
	if len(cond.HTs) != 2 {
		t.Fatalf("conditioned topology has %d HTs, want 2: %v", len(cond.HTs), cond)
	}
	for _, ht := range cond.HTs {
		if ht.Clients.Has(0) {
			t.Errorf("HT %v still adjacent to conditioned client", ht)
		}
	}
}

func TestNormalizeMergesDuplicateEdgeSets(t *testing.T) {
	topo := &Topology{
		N: 3,
		HTs: []HiddenTerminal{
			{Q: 0.2, Clients: NewClientSet(0, 1)},
			{Q: 0.3, Clients: NewClientSet(0, 1)},
			{Q: 0.0, Clients: NewClientSet(2)}, // dropped: q = 0
			{Q: 0.4, Clients: NewClientSet()},  // dropped: no edges
		},
	}
	norm := topo.Normalize()
	if len(norm.HTs) != 1 {
		t.Fatalf("normalized to %d HTs, want 1: %v", len(norm.HTs), norm)
	}
	want := 1 - (1-0.2)*(1-0.3)
	if !almostEqual(norm.HTs[0].Q, want, 1e-12) {
		t.Errorf("merged q = %v, want %v", norm.HTs[0].Q, want)
	}
	// Normalization must preserve the induced access distributions.
	for i := 0; i < topo.N; i++ {
		if !almostEqual(topo.AccessProb(i), norm.AccessProb(i), 1e-12) {
			t.Errorf("AccessProb(%d) changed by Normalize", i)
		}
	}
}

func TestAccuracyMetric(t *testing.T) {
	truth := fig1Topology()
	if got := Accuracy(truth, truth); got != 1 {
		t.Errorf("self accuracy = %v, want 1", got)
	}
	// Drop one terminal: 3 of 4 matched.
	partial := &Topology{N: truth.N, HTs: truth.HTs[:3]}
	if got := Accuracy(truth, partial); !almostEqual(got, 0.75, 1e-12) {
		t.Errorf("partial accuracy = %v, want 0.75", got)
	}
	// A wrong edge on one terminal breaks its match (stringent metric).
	wrong := truth.Clone()
	wrong.HTs[0].Clients = wrong.HTs[0].Clients.Add(2)
	if got := Accuracy(truth, wrong); !almostEqual(got, 0.75, 1e-12) {
		t.Errorf("wrong-edge accuracy = %v, want 0.75", got)
	}
	// Empty truth matches only empty inference.
	empty := &Topology{N: 4}
	if got := Accuracy(empty, empty); got != 1 {
		t.Errorf("empty/empty accuracy = %v", got)
	}
	if got := Accuracy(empty, truth); got != 0 {
		t.Errorf("empty/nonempty accuracy = %v", got)
	}
}

func TestValidate(t *testing.T) {
	good := fig1Topology()
	if err := good.Validate(); err != nil {
		t.Errorf("valid topology rejected: %v", err)
	}
	bad := &Topology{N: 2, HTs: []HiddenTerminal{{Q: 1.0, Clients: NewClientSet(0)}}}
	if err := bad.Validate(); err == nil {
		t.Error("q = 1.0 accepted")
	}
	bad = &Topology{N: 2, HTs: []HiddenTerminal{{Q: 0.5, Clients: NewClientSet(3)}}}
	if err := bad.Validate(); err == nil {
		t.Error("edge outside client range accepted")
	}
	bad = &Topology{N: 2, HTs: []HiddenTerminal{{Q: 0.5}}}
	if err := bad.Validate(); err == nil {
		t.Error("empty edge set accepted")
	}
}

func TestMeasureRoundTrip(t *testing.T) {
	topo := fig1Topology()
	m := topo.Measure()
	for i := 0; i < topo.N; i++ {
		if !almostEqual(m.P[i], topo.AccessProb(i), 1e-12) {
			t.Errorf("P[%d] mismatch", i)
		}
		for j := i + 1; j < topo.N; j++ {
			if !almostEqual(m.Pair(i, j), topo.PairProb(i, j), 1e-12) {
				t.Errorf("Pair(%d,%d) mismatch", i, j)
			}
		}
	}
	if err := m.Validate(1e-9); err != nil {
		t.Errorf("exact measurements fail validation: %v", err)
	}
}

// TestAccuracyNilTopologies is the regression for the nil-deref: the
// controller only snapshots ground truth on the speculative rung, so
// Accuracy could be handed a nil topology. Nil means "no blueprint",
// which is undefined — NaN — rather than an empty topology's 0 or 1.
func TestAccuracyNilTopologies(t *testing.T) {
	some := &Topology{N: 2, HTs: []HiddenTerminal{{Q: 0.3, Clients: NewClientSet(0)}}}
	for _, c := range []struct {
		name            string
		truth, inferred *Topology
	}{
		{"nil truth", nil, some},
		{"nil inferred", some, nil},
		{"both nil", nil, nil},
	} {
		if got := Accuracy(c.truth, c.inferred); !math.IsNaN(got) {
			t.Errorf("%s: Accuracy = %v, want NaN", c.name, got)
		}
	}
	if got := Accuracy(some, some); got != 1 {
		t.Errorf("self-accuracy = %v, want 1", got)
	}
}
