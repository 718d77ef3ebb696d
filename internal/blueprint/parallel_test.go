package blueprint

import (
	"reflect"
	"sync"
	"testing"

	"blu/internal/rng"
)

// randomTruthTopology draws a random ground-truth blueprint the way the
// property sweep does: n clients, h terminals, degree biased small.
func randomTruthTopology(r *rng.Source, n, h int) *Topology {
	truth := &Topology{N: n}
	for k := 0; k < h; k++ {
		var set ClientSet
		for i := 0; i < n; i++ {
			if r.Bool(0.35) {
				set = set.Add(i)
			}
		}
		if set.Empty() {
			set = set.Add(r.Intn(n))
		}
		truth.HTs = append(truth.HTs, HiddenTerminal{
			Q:       0.05 + 0.5*r.Float64(),
			Clients: set,
		})
	}
	return truth.Normalize()
}

// TestInferParallelMatchesSequential is the tentpole determinism
// regression: over a grid of seeds and client counts, Infer with
// Parallelism 1 (fully sequential) and Parallelism 8 must return
// byte-identical results — same topology, violation, start and
// iteration counts. Any divergence means a start leaked randomness
// across tasks or the reduction depends on scheduling order.
func TestInferParallelMatchesSequential(t *testing.T) {
	gen := rng.New(77)
	for _, n := range []int{4, 6, 8} {
		for _, seed := range []uint64{1, 7, 42} {
			h := 1 + gen.Intn(3)
			truth := randomTruthTopology(gen.SplitIndex("truth", n*100+int(seed)), n, h)
			m := truth.Measure()

			seq, err := Infer(m, InferOptions{Seed: seed, Parallelism: 1})
			if err != nil {
				t.Fatalf("n=%d seed=%d sequential: %v", n, seed, err)
			}
			par, err := Infer(m, InferOptions{Seed: seed, Parallelism: 8})
			if err != nil {
				t.Fatalf("n=%d seed=%d parallel: %v", n, seed, err)
			}
			if !reflect.DeepEqual(seq, par) {
				t.Errorf("n=%d seed=%d: parallel result diverges from sequential\nseq: topo=%v viol=%v starts=%d iters=%d\npar: topo=%v viol=%v starts=%d iters=%d",
					n, seed,
					seq.Topology, seq.Violation, seq.Starts, seq.Iterations,
					par.Topology, par.Violation, par.Starts, par.Iterations)
			}
		}
	}
}

// TestInferParallelismSettingsAgree checks that every Parallelism
// setting — default (all cores), 1, 2, 3, 8 — lands on the identical
// result for the same noisy instance, not just the two extremes.
func TestInferParallelismSettingsAgree(t *testing.T) {
	truth := &Topology{N: 6, HTs: []HiddenTerminal{
		{Q: 0.35, Clients: NewClientSet(0, 1, 3)},
		{Q: 0.20, Clients: NewClientSet(2, 3)},
		{Q: 0.45, Clients: NewClientSet(4, 5)},
	}}
	m := truth.Measure()
	ref, err := Infer(m, InferOptions{Seed: 11, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{0, 2, 3, 8} {
		got, err := Infer(m, InferOptions{Seed: 11, Parallelism: p})
		if err != nil {
			t.Fatalf("Parallelism=%d: %v", p, err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("Parallelism=%d diverges: topo=%v viol=%v (want topo=%v viol=%v)",
				p, got.Topology, got.Violation, ref.Topology, ref.Violation)
		}
	}
}

// TestInferTrivialInstanceDeterministic pins the triviality fast path:
// an interference-free cell must infer an empty blueprint identically
// at every parallelism setting (the probe short-circuits the fan-out).
func TestInferTrivialInstanceDeterministic(t *testing.T) {
	m := (&Topology{N: 5}).Measure()
	seq, err := Infer(m, InferOptions{Seed: 9, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Infer(m, InferOptions{Seed: 9, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("trivial instance diverges: seq %+v, par %+v", seq, par)
	}
	if len(seq.Topology.HTs) != 0 || !seq.Converged {
		t.Errorf("trivial instance not recognized: %+v", seq)
	}
}

// TestInferConcurrentCallers hammers parallel Infer from many
// goroutines sharing one Measurements value; run with -race this
// locks down the claim that measurements and the transformed targets
// are safe shared read-only state.
func TestInferConcurrentCallers(t *testing.T) {
	truth := &Topology{N: 6, HTs: []HiddenTerminal{
		{Q: 0.3, Clients: NewClientSet(0, 1)},
		{Q: 0.25, Clients: NewClientSet(2, 3, 4)},
	}}
	m := truth.Measure()
	want, err := Infer(m, InferOptions{Seed: 21, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}

	const callers = 8
	var wg sync.WaitGroup
	results := make([]*InferResult, callers)
	errs := make([]error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g], errs[g] = Infer(m, InferOptions{Seed: 21, Parallelism: 4})
		}(g)
	}
	wg.Wait()
	for g := 0; g < callers; g++ {
		if errs[g] != nil {
			t.Fatalf("caller %d: %v", g, errs[g])
		}
		if !reflect.DeepEqual(want, results[g]) {
			t.Errorf("caller %d diverges from sequential reference", g)
		}
	}
}

// TestInferOptionsDefaults pins the normalization table, in particular
// the RandomStarts<0 regression: negatives must select the documented
// default of 8, not silently disable random starts.
func TestInferOptionsDefaults(t *testing.T) {
	const n = 5
	cases := []struct {
		name string
		in   InferOptions
		want func(t *testing.T, o InferOptions)
	}{
		{"zero value", InferOptions{}, func(t *testing.T, o InferOptions) {
			if o.RandomStarts != 8 {
				t.Errorf("RandomStarts = %d, want 8", o.RandomStarts)
			}
			if o.Tolerance != 0.02 {
				t.Errorf("Tolerance = %v, want 0.02", o.Tolerance)
			}
			if o.Perturbations != 4 {
				t.Errorf("Perturbations = %d, want 4", o.Perturbations)
			}
		}},
		{"negative RandomStarts selects default", InferOptions{RandomStarts: -3}, func(t *testing.T, o InferOptions) {
			if o.RandomStarts != 8 {
				t.Errorf("RandomStarts = %d, want 8 (negatives must not disable random starts)", o.RandomStarts)
			}
		}},
		{"explicit RandomStarts kept", InferOptions{RandomStarts: 5}, func(t *testing.T, o InferOptions) {
			if o.RandomStarts != 5 {
				t.Errorf("RandomStarts = %d, want 5", o.RandomStarts)
			}
		}},
		{"explicit values kept", InferOptions{Tolerance: 0.5, Perturbations: 1}, func(t *testing.T, o InferOptions) {
			if o.Tolerance != 0.5 || o.Perturbations != 1 {
				t.Errorf("explicit options rewritten: %+v", o)
			}
		}},
		{"Parallelism passes through untouched", InferOptions{Parallelism: 3}, func(t *testing.T, o InferOptions) {
			if o.Parallelism != 3 {
				t.Errorf("Parallelism = %d, want 3", o.Parallelism)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.want(t, tc.in.withDefaults())
		})
	}
	// The N-derived budgets, with maxHTs floored at 8 for small N.
	if got := [3]int{maxIterations(n), maxHTs(n), stallLimit(n)}; got != [3]int{400 + 20*n*n, 4 * n, 30 + 2*n} {
		t.Errorf("budgets at n=%d: %v", n, got)
	}
	if got := maxHTs(1); got != 8 {
		t.Errorf("maxHTs floor = %d, want 8", got)
	}
}

// TestInferNegativeRandomStartsStillInfers is the end-to-end face of
// the normalization fix: with RandomStarts:-1 inference must still run
// its multi-start search and recover the blueprint.
func TestInferNegativeRandomStartsStillInfers(t *testing.T) {
	truth := &Topology{N: 4, HTs: []HiddenTerminal{
		{Q: 0.4, Clients: NewClientSet(0, 2)},
	}}
	res, err := Infer(truth.Measure(), InferOptions{Seed: 6, RandomStarts: -1})
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(truth.Normalize(), res.Topology); acc != 1 {
		t.Errorf("accuracy = %v with RandomStarts=-1, inferred %v", acc, res.Topology)
	}
	// 4 structured + 8 random starts (plus perturbation restarts) were in
	// play; the start count must reflect at least the 12 base starts
	// unless the instance resolved trivially (it does not here).
	if res.Starts < 12 {
		t.Errorf("Starts = %d, want >= 12 (random starts disabled?)", res.Starts)
	}
}
