package blueprint

import (
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"blu/internal/obs"
	"blu/internal/rng"
)

// warmGrid is the working-point grid for the warm-start gates: for each
// (N, seed) cell, a ground truth is measured and inferred cold, then
// the truth drifts slightly (one terminal's activity changes) and the
// drifted measurements are re-inferred with the previous blueprint as
// WarmStart — the §3.7 refresh-loop shape the feature exists for.
type warmCase struct {
	n     int
	seed  uint64
	prev  *Topology
	drift *Measurements
}

func warmGrid(t *testing.T) []warmCase {
	t.Helper()
	gen := rng.New(0x3A97)
	var cases []warmCase
	for _, n := range []int{6, 10, 14} {
		for _, seed := range []uint64{3, 17} {
			truth := randomTruthTopology(gen.SplitIndex("truth", n*100+int(seed)), n, 1+n/3)
			cold, err := Infer(truth.Measure(), InferOptions{Seed: seed})
			if err != nil {
				t.Fatalf("cold infer N=%d seed=%d: %v", n, seed, err)
			}
			drifted := &Topology{N: n, HTs: append([]HiddenTerminal(nil), truth.HTs...)}
			dq := 0.03
			if drifted.HTs[0].Q+dq >= 1 {
				dq = -0.03
			}
			drifted.HTs[0].Q += dq
			cases = append(cases, warmCase{
				n: n, seed: seed, prev: cold.Topology, drift: drifted.Measure(),
			})
		}
	}
	return cases
}

// warmTraceHash folds every warm re-inference over the grid into one
// FNV-1a hash, mirroring inferTraceHash for the cold path.
func warmTraceHash(t *testing.T, parallelism int) uint64 {
	t.Helper()
	h := fnv.New64a()
	var buf [8]byte
	wu := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	wf := func(f float64) { wu(math.Float64bits(f)) }
	for _, wc := range warmGrid(t) {
		res, err := Infer(wc.drift, InferOptions{Seed: wc.seed, WarmStart: wc.prev, Parallelism: parallelism})
		if err != nil {
			t.Fatalf("warm infer N=%d seed=%d: %v", wc.n, wc.seed, err)
		}
		wu(uint64(res.Topology.N))
		wu(uint64(len(res.Topology.HTs)))
		for _, ht := range res.Topology.HTs {
			wu(uint64(ht.Clients))
			wf(ht.Q)
		}
		wf(res.Violation)
		wf(res.MaxViolation)
		if res.Converged {
			wu(1)
		} else {
			wu(0)
		}
		wu(uint64(res.Starts))
		wu(uint64(res.Iterations))
	}
	return h.Sum64()
}

// goldenWarmTrace pins warm-start re-inference bit for bit over the
// warmGrid working points. Like goldenInferTrace, the exact-constant
// comparison is amd64-only (FP fusing elsewhere can flip near-ties);
// the rerun-determinism check holds everywhere.
const goldenWarmTrace = 0xb1866e94859431db

func TestWarmStartTraceGolden(t *testing.T) {
	got := warmTraceHash(t, 1)
	if again := warmTraceHash(t, 1); again != got {
		t.Errorf("identical warm reruns disagree: %#x vs %#x", got, again)
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden-constant comparison skipped on %s (FP fusing may flip near-ties)", runtime.GOARCH)
	}
	if got != goldenWarmTrace {
		t.Errorf("warm trace hash = %#x, golden %#x — warm-start behaviour changed", got, uint64(goldenWarmTrace))
	}
}

// TestWarmStartLeavesColdPathUntouched: WarmStart draws from its own
// rng stream, so the cold multi-start result for WarmStart == nil must
// be bit-identical to what it was before the feature existed — that is
// exactly what TestInferTraceGolden already pins — and a warm infer
// must be invariant across Parallelism like every other infer.
func TestWarmStartParallelismInvariance(t *testing.T) {
	want := warmTraceHash(t, 1)
	for _, p := range []int{2, 4, 0} {
		if got := warmTraceHash(t, p); got != want {
			t.Errorf("Parallelism=%d: warm trace hash %#x != sequential %#x", p, got, want)
		}
	}
}

// TestWarmStartConvergedSkipsFanOut: when the measurement delta is
// small enough that repairing the previous blueprint converges, the
// cold starts must not run at all — Starts collapses to the probe plus
// the warm chain, which is the speedup the streaming refresh loop buys.
func TestWarmStartConvergedSkipsFanOut(t *testing.T) {
	truth := randomTruthTopology(rng.New(0xBEEF).Split("truth"), 10, 4)
	m := truth.Measure()
	cold, err := Infer(m, InferOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !cold.Converged {
		t.Fatalf("cold inference did not converge on exact measurements (viol %v)", cold.MaxViolation)
	}
	warm, err := Infer(m, InferOptions{Seed: 9, WarmStart: cold.Topology})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Converged {
		t.Fatalf("warm re-inference on identical measurements did not converge")
	}
	opts := InferOptions{}.withDefaults()
	coldTasks := 4 + opts.RandomStarts // structured + random starts at minimum
	if warm.Starts >= coldTasks {
		t.Errorf("warm Starts = %d, want < %d (fan-out should be skipped)", warm.Starts, coldTasks)
	}
	if warm.Iterations >= cold.Iterations {
		t.Errorf("warm Iterations = %d, want < cold %d", warm.Iterations, cold.Iterations)
	}
	if blueprintEqual(warm.Topology, cold.Topology) != true {
		t.Errorf("warm result differs from the converged blueprint it was seeded with:\nwarm %v\ncold %v",
			warm.Topology, cold.Topology)
	}
}

func blueprintEqual(a, b *Topology) bool {
	if a.N != b.N || len(a.HTs) != len(b.HTs) {
		return false
	}
	for i := range a.HTs {
		if a.HTs[i].Clients != b.HTs[i].Clients || math.Abs(a.HTs[i].Q-b.HTs[i].Q) > 1e-9 {
			return false
		}
	}
	return true
}

// TestWarmStartGarbageTolerant: a stale or corrupt previous blueprint
// is a hint, never a constraint — out-of-range clients, q outside
// (0,1), NaN, and N mismatches must all infer successfully.
func TestWarmStartGarbageTolerant(t *testing.T) {
	truth := randomTruthTopology(rng.New(0xFEED).Split("truth"), 8, 3)
	m := truth.Measure()
	garbage := []*Topology{
		{N: 8, HTs: []HiddenTerminal{{Q: math.NaN(), Clients: NewClientSet(0, 1)}}},
		{N: 8, HTs: []HiddenTerminal{{Q: 2.5, Clients: NewClientSet(1)}}},
		{N: 8, HTs: []HiddenTerminal{{Q: -0.5, Clients: NewClientSet(2)}}},
		{N: 8, HTs: []HiddenTerminal{{Q: 0.3, Clients: NewClientSet(40, 50)}}},
		{N: 8},
		{N: 5, HTs: []HiddenTerminal{{Q: 0.3, Clients: NewClientSet(0)}}}, // N mismatch: ignored
	}
	want, err := Infer(m, InferOptions{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for gi, g := range garbage {
		res, err := Infer(m, InferOptions{Seed: 4, WarmStart: g})
		if err != nil {
			t.Errorf("garbage[%d]: %v", gi, err)
			continue
		}
		if res.MaxViolation > want.MaxViolation+0.05 {
			t.Errorf("garbage[%d]: warm result much worse than cold (%v vs %v)",
				gi, res.MaxViolation, want.MaxViolation)
		}
	}
}

// TestWarmStartAllocCeiling enforces the allocation contract on the
// steady-state refresh path: a warm re-inference that converges (the
// common small-delta case) reuses the probe and warm-chain scratch and
// never fans out, so its allocation budget is far below a cold
// multi-start's. ci.sh runs this as part of its kernel-smoke step.
func TestWarmStartAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; ceilings hold on plain builds")
	}
	truth := randomTruthTopology(rng.New(0xA110C).Split("warm"), 16, 6)
	m := truth.Measure()
	cold, err := Infer(m, InferOptions{Seed: 42, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !cold.Converged {
		t.Fatalf("cold inference did not converge (viol %v)", cold.MaxViolation)
	}
	opts := InferOptions{Seed: 42, Parallelism: 1, WarmStart: cold.Topology}
	if _, err := Infer(m, opts); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(5, func() {
		if _, err := Infer(m, opts); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 200
	if got > ceiling {
		t.Errorf("warm Infer N=16 allocs = %v, ceiling %v", got, ceiling)
	}
}

// TestWarmStartObsCounters: the refresh loop's telemetry must record
// both that a warm seed was offered and that it short-circuited the
// fan-out, so a run manifest can show the warm-hit rate.
func TestWarmStartObsCounters(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	truth := randomTruthTopology(rng.New(0x0B5).Split("truth"), 8, 3)
	m := truth.Measure()
	cold, err := Infer(m, InferOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !cold.Converged {
		t.Fatalf("cold inference did not converge")
	}
	starts0, hits0 := obsWarmStarts.Value(), obsWarmHits.Value()
	if _, err := Infer(m, InferOptions{Seed: 2, WarmStart: cold.Topology}); err != nil {
		t.Fatal(err)
	}
	if obsWarmStarts.Value() != starts0+1 {
		t.Errorf("blueprint_warm_starts_total did not advance")
	}
	if obsWarmHits.Value() != hits0+1 {
		t.Errorf("blueprint_warm_hits_total did not advance on a converged warm chain")
	}
}
