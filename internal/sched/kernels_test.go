package sched

import (
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"testing"

	"blu/internal/blueprint"
	"blu/internal/joint"
	"blu/internal/lte"
	"blu/internal/obs"
	"blu/internal/rng"
)

// kernelEnv is the seeded working point shared by the allocation
// ceilings and the schedule-trace golden test: distinct per-(ue, b)
// rates so greedy choices are sharp, mild MU-MIMO derating, a binding
// K limit, and a topology with enough shared hidden terminals to make
// BLU's joint-distribution path do real work.
func kernelEnv() Env {
	return Env{
		NumUE: 12,
		NumRB: 6,
		M:     2,
		K:     6,
		Alpha: 50,
		Rate: func(ue, b int) float64 {
			return 500 + float64((ue*37+b*101)%97)*13.25
		},
		GroupScale: func(n int) float64 {
			return 1 / (1 + 0.15*float64(n-1))
		},
	}
}

func kernelTopology() *blueprint.Topology {
	r := rng.New(11)
	topo := &blueprint.Topology{N: 12}
	for k := 0; k < 9; k++ {
		var set blueprint.ClientSet
		for i := 0; i < 12; i++ {
			if r.Bool(0.25) {
				set = set.Add(i)
			}
		}
		if set.Empty() {
			set = set.Add(r.Intn(12))
		}
		topo.HTs = append(topo.HTs, blueprint.HiddenTerminal{
			Q:       0.1 + 0.5*r.Float64(),
			Clients: set,
		})
	}
	return topo.Normalize()
}

// synthResults derives deterministic receive results from a schedule:
// a fixed hash of (sf, b, ue) classifies each grant, so every run that
// produces the same schedules also observes the same feedback.
func synthResults(sf int, sch *lte.Schedule, env Env) []lte.RBResult {
	results := make([]lte.RBResult, len(sch.RB))
	for b, ues := range sch.RB {
		res := lte.RBResult{Scheduled: ues}
		scale := env.groupScale(len(ues))
		for _, ue := range ues {
			h := uint64(sf*1000003+b*4241+ue*97) * 0x9e3779b97f4a7c15 >> 60
			switch {
			case h < 3:
				res.Outcomes = append(res.Outcomes, lte.OutcomeBlocked)
				res.Bits = append(res.Bits, 0)
			case h < 4 && len(ues) > 1:
				res.Outcomes = append(res.Outcomes, lte.OutcomeCollision)
				res.Bits = append(res.Bits, 0)
			default:
				res.Outcomes = append(res.Outcomes, lte.OutcomeSuccess)
				res.Bits = append(res.Bits, env.Rate(ue, b)*scale)
			}
		}
		results[b] = res
	}
	return results
}

// traceHash runs s for subframes rounds with synthetic feedback and
// returns an FNV-1a hash over the full grant sequence.
func traceHash(s Scheduler, env Env, subframes int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for sf := 0; sf < subframes; sf++ {
		sch := s.Schedule(sf)
		put(sf)
		for b, ues := range sch.RB {
			put(b)
			put(len(ues))
			for _, ue := range ues {
				put(ue)
			}
		}
		s.Observe(sf, synthResults(sf, sch, env))
	}
	return h.Sum64()
}

// Golden trace hashes for the kernelEnv/kernelTopology seeded run.
// They pin the exact grant sequence of every scheduler, so any
// unintended behavioural change in the kernels — cache state leaking
// into decisions, scratch reuse corrupting a group, a reordered greedy
// tie-break — fails loudly. Recompute deliberately (the test prints the
// got-hashes on failure) only when the scheduling policy itself is
// meant to change. Exact-hash comparison is gated to amd64: the Go spec
// lets other architectures fuse floating-point operations, which can
// legitimately flip near-ties.
const (
	goldenTracePF  = 0x972f68ebb2a0f6c1
	goldenTraceAA  = 0x111978b3783c8c25
	goldenTraceBLU = 0x67363db9558b608e
)

const goldenSubframes = 40

func goldenSchedulers(t *testing.T) (pf *PF, aa *AccessAware, blu *Speculative, env Env) {
	t.Helper()
	env = kernelEnv()
	calc := joint.NewCalculator(kernelTopology())
	var err error
	if pf, err = NewPF(env); err != nil {
		t.Fatal(err)
	}
	if aa, err = NewAccessAware(env, calc); err != nil {
		t.Fatal(err)
	}
	if blu, err = NewSpeculative(env, joint.NewCalculator(kernelTopology())); err != nil {
		t.Fatal(err)
	}
	return pf, aa, blu, env
}

func TestScheduleTraceGolden(t *testing.T) {
	pf, aa, blu, env := goldenSchedulers(t)
	got := map[string]uint64{
		"PF":  traceHash(pf, env, goldenSubframes),
		"AA":  traceHash(aa, env, goldenSubframes),
		"BLU": traceHash(blu, env, goldenSubframes),
	}

	// Determinism: a fresh identical run reproduces every hash exactly.
	pf2, aa2, blu2, _ := goldenSchedulers(t)
	again := map[string]uint64{
		"PF":  traceHash(pf2, env, goldenSubframes),
		"AA":  traceHash(aa2, env, goldenSubframes),
		"BLU": traceHash(blu2, env, goldenSubframes),
	}
	for name, h := range got {
		if again[name] != h {
			t.Errorf("%s: identical reruns disagree: %#x vs %#x", name, h, again[name])
		}
	}

	if runtime.GOARCH != "amd64" {
		t.Skipf("golden-constant comparison skipped on %s (FP fusing may flip near-ties)", runtime.GOARCH)
	}
	want := map[string]uint64{"PF": goldenTracePF, "AA": goldenTraceAA, "BLU": goldenTraceBLU}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s trace hash = %#x, golden %#x — scheduling behaviour changed", name, got[name], w)
		}
	}
}

// TestScheduleTraceCacheBoundInvariance pins the reset-not-evict
// contract: a speculative scheduler whose group cache holds 2 entries
// (thrashing every RB) and whose joint calculator memo holds 16 must
// produce the byte-identical grant sequence of the unbounded run,
// because a reset only ever costs recomputation of exact values.
func TestScheduleTraceCacheBoundInvariance(t *testing.T) {
	_, _, ref, env := goldenSchedulers(t)
	want := traceHash(ref, env, goldenSubframes)

	calc := joint.NewCalculator(kernelTopology())
	calc.SetMemoLimit(16)
	bounded, err := NewSpeculative(env, calc)
	if err != nil {
		t.Fatal(err)
	}
	bounded.CacheEntries = 2
	if got := traceHash(bounded, env, goldenSubframes); got != want {
		t.Errorf("bounded caches changed the schedule: %#x vs %#x", got, want)
	}
}

// TestGroupCacheResetCounter checks that a tiny bound actually exercises
// the whole-table reset path (otherwise the invariance test above could
// pass vacuously) and that the obs counters see the traffic.
func TestGroupCacheResetCounter(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	resets0 := obs.GetCounter("sched_blu_cache_reset_total").Value()
	hits0 := obs.GetCounter("sched_blu_cache_hit_total").Value()

	_, _, blu, env := goldenSchedulers(t)
	blu.CacheEntries = 2
	traceHash(blu, env, 10)
	if d := obs.GetCounter("sched_blu_cache_reset_total").Value() - resets0; d == 0 {
		t.Error("2-entry group cache never reset over 10 subframes")
	}

	// A default-bound cache over the same run must see real reuse.
	_, _, roomy, _ := goldenSchedulers(t)
	traceHash(roomy, env, 10)
	if d := obs.GetCounter("sched_blu_cache_hit_total").Value() - hits0; d == 0 {
		t.Error("default-bound group cache recorded no hits")
	}
}

// TestSpeculativeProvisionalLoadParity is the regression test for the
// missing MU-MIMO derating in Speculative.Schedule's provisional PF
// load. With unit marginals the three schedulers make identical greedy
// decisions, so their intra-subframe provisional bookkeeping must match
// exactly: speculative used to charge Marginal·Rate while PF and
// AccessAware charged Rate·groupScale(|G|), inflating BLU's denominators
// and skewing later RBs of the same subframe.
func TestSpeculativeProvisionalLoadParity(t *testing.T) {
	env := kernelEnv()
	env.K = 0 // keep every client eligible so groups of 2 form freely
	ones := make([]float64, env.NumUE)
	for i := range ones {
		ones[i] = 1
	}
	dist := &joint.Independent{P: ones}
	pf, err := NewPF(env)
	if err != nil {
		t.Fatal(err)
	}
	aa, err := NewAccessAware(env, dist)
	if err != nil {
		t.Fatal(err)
	}
	blu, err := NewSpeculative(env, dist)
	if err != nil {
		t.Fatal(err)
	}

	for sf := 0; sf < 5; sf++ {
		ps, as, bs := pf.Schedule(sf), aa.Schedule(sf), blu.Schedule(sf)
		if !reflect.DeepEqual(ps.RB, as.RB) || !reflect.DeepEqual(ps.RB, bs.RB) {
			t.Fatalf("sf %d: schedules diverge under unit marginals:\n PF %v\n AA %v\n BLU %v",
				sf, ps.RB, as.RB, bs.RB)
		}
		for ue := 0; ue < env.NumUE; ue++ {
			if pf.st.served[ue] != aa.st.served[ue] || pf.st.served[ue] != blu.st.served[ue] {
				t.Fatalf("sf %d: provisional load diverges for UE %d: PF %v, AA %v, BLU %v",
					sf, ue, pf.st.served[ue], aa.st.served[ue], blu.st.served[ue])
			}
		}
		results := synthResults(sf, ps, env)
		pf.Observe(sf, results)
		aa.Observe(sf, results)
		blu.Observe(sf, results)
	}
}

// TestScheduleSteadyStateAllocs enforces the allocation-free kernel
// contract: once scratch and caches are warm, a Schedule call may
// allocate only the returned schedule itself (struct, RB slice, one
// grant arena) and Observe nothing at all. The pre-rewrite speculative
// scheduler allocated ~500–1300 times per call at this working point,
// so the ceilings also lock in the ≥5× reduction the kernel rewrite
// claims. ci.sh runs this as its kernel-smoke step.
func TestScheduleSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; ceilings hold on plain builds")
	}
	env := kernelEnv()
	calc := joint.NewCalculator(kernelTopology())
	pf, err := NewPF(env)
	if err != nil {
		t.Fatal(err)
	}
	aa, err := NewAccessAware(env, calc)
	if err != nil {
		t.Fatal(err)
	}
	blu, err := NewSpeculative(env, calc)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name    string
		s       Scheduler
		ceiling float64
	}{
		{"PF", pf, 4},
		{"AA", aa, 4},
		{"BLU", blu, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Warm scratch and caches; no Observe in between so the
			// greedy decisions (and therefore the cached groups) repeat.
			for sf := 0; sf < 3; sf++ {
				tc.s.Schedule(sf)
			}
			if got := testing.AllocsPerRun(20, func() { tc.s.Schedule(0) }); got > tc.ceiling {
				t.Errorf("steady-state Schedule allocs = %v, ceiling %v", got, tc.ceiling)
			}
			sch := tc.s.Schedule(0)
			results := synthResults(0, sch, env)
			if got := testing.AllocsPerRun(20, func() { tc.s.Observe(0, results) }); got > 0 {
				t.Errorf("steady-state Observe allocs = %v, want 0", got)
			}
		})
	}
}

// TestScheduleResultIndependentOfScratch pins the ownership contract:
// the returned schedule must not alias scheduler scratch, so a caller
// may retain it across Schedule calls.
func TestScheduleResultIndependentOfScratch(t *testing.T) {
	_, _, blu, env := goldenSchedulers(t)
	first := blu.Schedule(0)
	snapshot := make([][]int, len(first.RB))
	for b, ues := range first.RB {
		snapshot[b] = append([]int(nil), ues...)
	}
	blu.Observe(0, synthResults(0, first, env))
	blu.Schedule(1) // would clobber first if RB slices aliased scratch
	if !reflect.DeepEqual(first.RB, snapshot) {
		t.Error("schedule mutated by a later Schedule call: result aliases scratch")
	}
}

// sink prevents the benchmark loops below from being optimized away.
var sink *lte.Schedule

// BenchmarkScheduleKernel is the in-package view of the scheduler hot
// path (the root bench_test.go carries the whole-cell variants).
func BenchmarkScheduleKernel(b *testing.B) {
	env := kernelEnv()
	calc := joint.NewCalculator(kernelTopology())
	pf, _ := NewPF(env)
	aa, _ := NewAccessAware(env, calc)
	blu, _ := NewSpeculative(env, calc)
	for _, tc := range []struct {
		name string
		s    Scheduler
	}{{"PF", pf}, {"AA", aa}, {"BLU", blu}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink = tc.s.Schedule(i)
			}
		})
	}
	_ = fmt.Sprint(sink)
}

// TestGroupCacheGrowthInvariance pins the sized-by-use contract for the
// group-distribution cache: a table that starts at minGroupCacheSlots
// and grows on demand hands out bit-identical outcome distributions to
// one preallocated at its bound, through several growth steps and
// across whole-table resets, and resets at the same lookups.
func TestGroupCacheGrowthInvariance(t *testing.T) {
	const limit = 256
	topo := kernelTopology()
	grown := newGroupDistCache(joint.NewCalculator(topo), limit)
	fixed := newGroupDistCache(joint.NewCalculator(topo), limit)
	fixed.slots = make([]groupSlot, 2*limit)
	fixed.mask = 2*limit - 1
	if len(grown.slots) != minGroupCacheSlots {
		t.Fatalf("fresh cache has %d slots, want %d", len(grown.slots), minGroupCacheSlots)
	}

	resets, sizes := 0, map[int]bool{}
	r := rng.New(9)
	for q := 0; q < 3000; q++ {
		var group blueprint.ClientSet
		for group.Count() < 1+q%5 {
			group = group.Add(r.Intn(topo.N))
		}
		before := grown.count
		gm, ge := grown.get(group)
		fm, fe := fixed.get(group)
		if !reflect.DeepEqual(gm, fm) || len(ge) != len(fe) {
			t.Fatalf("lookup %d: group %v members/outcomes differ", q, group)
		}
		for mask := range ge {
			if math.Float64bits(ge[mask]) != math.Float64bits(fe[mask]) {
				t.Fatalf("lookup %d: group %v exact[%d] = %v grown, %v preallocated", q, group, mask, ge[mask], fe[mask])
			}
		}
		if grown.count != fixed.count || grown.heldBytes != fixed.heldBytes {
			t.Fatalf("lookup %d: grown cache holds %d entries/%d B, preallocated %d/%d",
				q, grown.count, grown.heldBytes, fixed.count, fixed.heldBytes)
		}
		if grown.count < before {
			resets++
		}
		sizes[len(grown.slots)] = true
		if 2*grown.count > len(grown.slots) {
			t.Fatalf("lookup %d: load %d/%d above 0.5", q, grown.count, len(grown.slots))
		}
	}
	if len(sizes) < 3 || len(grown.slots) != 2*limit {
		t.Errorf("cache went through sizes %v, want several steps ending at %d", sizes, 2*limit)
	}
	if resets == 0 {
		t.Error("cache never reset: the run does not cross the bound")
	}
}

// TestJointTablesAcrossSchedulers is the serving shape: one JointTables
// per blueprint, a scheduler with fresh PF state bound to it for every
// subframe. Each schedule must equal the one a scheduler over its own
// new calculator produces — at empty, partly filled and warm tables —
// and the tables must account for what they hold.
func TestJointTablesAcrossSchedulers(t *testing.T) {
	env := kernelEnv()
	tables := NewJointTables(joint.NewCalculator(kernelTopology()))
	empty := tables.Bytes()
	if empty <= 0 || empty >= 8<<10 {
		t.Errorf("empty tables account %d bytes, want a few KB", empty)
	}
	r := rng.New(3)
	avg := make([]float64, env.NumUE)
	for sf := 0; sf < 25; sf++ {
		for i := range avg {
			avg[i] = 200 + 4000*r.Float64()
		}
		borrowed, err := tables.Speculative(env)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewSpeculative(env, joint.NewCalculator(kernelTopology()))
		if err != nil {
			t.Fatal(err)
		}
		borrowed.WarmStart(avg)
		fresh.WarmStart(avg)
		if got, want := borrowed.Schedule(0).RB, fresh.Schedule(0).RB; !reflect.DeepEqual(got, want) {
			t.Fatalf("subframe %d: borrowed tables scheduled %v, fresh calculator %v", sf, got, want)
		}
	}
	if got := tables.Bytes(); got <= empty {
		t.Errorf("tables account %d bytes after 25 subframes, %d when empty", got, empty)
	}
}
