package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"blu/internal/access"
	"blu/internal/blueprint"
	"blu/internal/fleet"
	"blu/internal/joint"
	"blu/internal/persist"
	"blu/internal/rng"
	"blu/internal/sched"
	"blu/internal/serve"
)

// The layer probes: every module's public calls timed alone, on samples
// the seeded generator draws for the purpose. They do not depend on the
// workload, so every traced run repeats them and a change to one layer
// shows in the same-named number whichever workload is being run.

// timed runs f n times and returns the sorted per-call durations.
func timed(n int, f func(i int)) []int64 {
	out := make([]int64, n)
	for i := range out {
		t0 := time.Now()
		f(i)
		out[i] = int64(time.Since(t0))
	}
	sortInt64(out)
	return out
}

// perCall times n back-to-back calls as one interval: for calls too
// short to time singly.
func perCall(n int, f func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(t0)) / float64(n)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

type layerSet map[string]metric

func (l layerSet) put(name string, v float64, unit string) { l[name] = metric{Value: v, Unit: unit} }

// probeLayers runs the whole suite. scratch is a directory the persist
// probes may fill and must empty.
func probeLayers(seed uint64, short bool, scratch string, out layerSet) error {
	r := rng.New(seed).Split("layer-probes")
	perSize := 16
	if short {
		perSize = 2
	}
	if err := probeBlueprint(r.Split("blueprint"), perSize, out); err != nil {
		return err
	}
	probeAccess(r.Split("access"), out)
	if err := probeSched(r.Split("sched"), short, out); err != nil {
		return err
	}
	if err := probeCodec(r.Split("codec"), out); err != nil {
		return err
	}
	if err := probeHandlers(r.Split("handlers"), perSize, out); err != nil {
		return err
	}
	if err := probePersist(r.Split("persist"), scratch, out); err != nil {
		return err
	}
	ring := fleet.NewRing(0, fleet.ShardName(0), fleet.ShardName(1), fleet.ShardName(2))
	dir := genDirectory(seed)
	cells := dir.CellIDs()
	out.put("fleet.ring_owner_ns", perCall(20000, func(i int) { ring.Owner(cells[i%len(cells)]) }), "ns")
	return nil
}

func probeBlueprint(r *rng.Source, perSize int, out layerSet) error {
	n := perSize * len(sizes)
	ms := make([]*blueprint.Measurements, n)
	opts := make([]blueprint.InferOptions, n)
	for k := range ms {
		c := genInferCase(r.SplitIndex("cold", k), sizes[k%len(sizes)])
		m, err := c.wire.Measurements.ToMeasurements()
		if err != nil {
			return err
		}
		ms[k], opts[k] = m, c.wire.Options.ToInferOptions()
		opts[k].Parallelism = 1
	}
	var failed error
	m0 := mallocs()
	cold := timed(n, func(i int) {
		if _, err := blueprint.InferContext(context.Background(), ms[i], opts[i]); err != nil {
			failed = err
		}
	})
	out.put("blueprint.allocs_per_infer", float64(mallocs()-m0)/float64(n), "count")
	out.put("blueprint.infer_cold_ms_p50", quantile(cold, 0.5)/1e6, "ms")
	out.put("blueprint.infer_cold_ms_p95", quantile(cold, 0.95)/1e6, "ms")
	if failed != nil {
		return fmt.Errorf("probe blueprint cold: %w", failed)
	}

	// Warm: one cell's refresh sequence, each infer seeded with the last.
	st := genStream(r.Split("warm"), 0, "probe", "", 8, 32, 64)
	win := access.NewWindow(st.n, 0)
	var prev *blueprint.Topology
	var warm []int64
	for b := range st.wire {
		foldBatch(win, &st.wire[b])
		m := win.Measurements()
		t0 := time.Now()
		res, err := blueprint.InferContext(context.Background(), m, blueprint.InferOptions{Seed: 1, Parallelism: 1, WarmStart: prev})
		d := int64(time.Since(t0))
		if err != nil {
			return fmt.Errorf("probe blueprint warm: %w", err)
		}
		if prev != nil {
			warm = append(warm, d)
		}
		prev = res.Topology
	}
	sortInt64(warm)
	out.put("blueprint.infer_warm_ms_p50", quantile(warm, 0.5)/1e6, "ms")
	return nil
}

func probeAccess(r *rng.Source, out layerSet) {
	st := genStream(r, 0, "probe", "", 16, 32, 256)
	type flat struct {
		sched []int
		acc   blueprint.ClientSet
	}
	var obsv []flat
	for b := range st.wire {
		for _, ob := range st.wire[b].Observations {
			obsv = append(obsv, flat{ob.Scheduled, blueprint.NewClientSet(ob.Accessed...)})
		}
	}
	// Fold four batches per epoch, as the ingest workload does, over a
	// ring small enough that Advance evicts once it is full.
	win := access.NewWindow(16, 4)
	perEpoch := 4 * 256
	var foldNS, advance []float64
	for e := 0; e*perEpoch < len(obsv); e++ {
		part := obsv[e*perEpoch : (e+1)*perEpoch]
		foldNS = append(foldNS, perCall(len(part), func(i int) { win.Fold(part[i].sched, part[i].acc) }))
		t0 := time.Now()
		win.Advance()
		advance = append(advance, float64(time.Since(t0)))
	}
	out.put("access.fold_ns_per_obs", median(foldNS), "ns")
	out.put("access.advance_us", median(advance)/1e3, "us")
	out.put("access.measurements_us", perCall(200, func(int) { win.Measurements() })/1e3, "us")
}

func probeSched(r *rng.Source, short bool, out layerSet) error {
	count := 24
	if short {
		count = 8
	}
	_, cases := genSchedulePool(r, 8, count)
	var calcCold, first, steady, pf []int64
	var memoNS []float64
	for k := range cases {
		wire := &cases[k].wire
		topo, err := wire.Topology.ToTopology()
		if err != nil {
			return err
		}
		clear := blueprint.NewClientSet(0, 1)
		blocked := blueprint.NewClientSet(2, 3, 4)
		t0 := time.Now()
		calc := joint.NewCalculator(topo)
		calc.Prob(clear, blocked)
		calcCold = append(calcCold, int64(time.Since(t0)))
		memoNS = append(memoNS, perCall(1000, func(int) { calc.Prob(clear, blocked) }))

		env := scheduleEnv(wire)
		t0 = time.Now()
		sp, err := sched.NewSpeculative(env, joint.NewCalculator(topo))
		if err != nil {
			return err
		}
		sp.WarmStart(wire.AvgThroughput)
		sp.Schedule(0)
		first = append(first, int64(time.Since(t0)))
		steady = append(steady, timed(20, func(i int) { sp.Schedule(i + 1) })...)

		t0 = time.Now()
		p, err := sched.NewPF(env)
		if err != nil {
			return err
		}
		p.WarmStart(wire.AvgThroughput)
		p.Schedule(0)
		pf = append(pf, int64(time.Since(t0)))
	}
	for _, v := range [][]int64{calcCold, first, steady, pf} {
		sortInt64(v)
	}
	out.put("joint.calculator_cold_us", quantile(calcCold, 0.5)/1e3, "us")
	out.put("joint.prob_memo_ns", median(memoNS), "ns")
	out.put("sched.speculative_first_ms", quantile(first, 0.5)/1e6, "ms")
	out.put("sched.speculative_steady_us", quantile(steady, 0.5)/1e3, "us")
	out.put("sched.pf_first_us", quantile(pf, 0.5)/1e3, "us")
	return nil
}

func probeCodec(r *rng.Source, out layerSet) error {
	const reps = 30
	c := genInferCase(r.Split("infer"), 16)
	jsonReq, err := json.Marshal(&c.wire)
	if err != nil {
		return err
	}
	binReq, err := serve.EncodeInferRequest(&c.wire)
	if err != nil {
		return err
	}
	_, topo, err := referenceInfer(&c.wire, true)
	if err != nil {
		return err
	}
	resp := serve.InferResponse{Topology: serve.TopologyToWire(topo), Converged: true, Starts: 12, Iterations: 3456}
	st := genStream(r.Split("observe"), 0, "probe", "", 16, 1, 256)
	_, sc := genSchedulePool(r.Split("schedule"), 1, 1)
	schedReq, err := json.Marshal(&sc[0].wire)
	if err != nil {
		return err
	}
	var failed error
	note := func(err error) {
		if err != nil {
			failed = err
		}
	}
	us := func(f func()) float64 { return perCall(reps, func(int) { f() }) / 1e3 }
	out.put("serve.decode_json_infer_us", us(func() { note(json.Unmarshal(jsonReq, &serve.InferRequest{})) }), "us")
	out.put("serve.decode_binary_infer_us", us(func() { _, err := serve.DecodeInferRequest(binReq); note(err) }), "us")
	out.put("serve.decode_binary_observe_us", us(func() { _, err := serve.DecodeObserveRequest(st.batches[0].body); note(err) }), "us")
	out.put("serve.decode_json_schedule_us", us(func() { note(json.Unmarshal(schedReq, &serve.ScheduleRequest{})) }), "us")
	out.put("serve.encode_json_infer_us", us(func() { _, err := json.Marshal(resp); note(err) }), "us")
	out.put("serve.encode_binary_infer_us", us(func() { _, err := serve.EncodeInferResponse(&resp); note(err) }), "us")
	out.put("serve.to_measurements_us", us(func() { _, err := c.wire.Measurements.ToMeasurements(); note(err) }), "us")
	return failed
}

// probeHandlers times Server.Handler().ServeHTTP with a recorder: the
// whole in-process cost of an endpoint, with no socket.
func probeHandlers(r *rng.Source, perSize int, out layerSet) error {
	rp, err := newInproc(serve.Config{})
	if err != nil {
		return err
	}
	defer rp.close()
	infers, _ := genInferPool(r.Split("infer"), sizes, perSize*len(sizes), true, nil)
	st := genStream(r.Split("observe"), 0, "probe", "", 16, 32, 256)
	scheds, _ := genSchedulePool(r.Split("schedule"), 8, 24)
	bad := 0
	run := func(reqs []request) []int64 {
		return timed(len(reqs), func(i int) {
			if rp.serve(&reqs[i]) != 200 {
				bad++
			}
		})
	}
	out.put("serve.handler_infer_miss_us_p50", quantile(run(infers), 0.5)/1e3, "us")
	out.put("serve.handler_infer_hit_us_p50", quantile(run(infers), 0.5)/1e3, "us")
	out.put("serve.handler_observe_us_p50", quantile(run(st.batches), 0.5)/1e3, "us")
	out.put("serve.handler_schedule_us_p50", quantile(run(scheds), 0.5)/1e3, "us")
	if bad > 0 {
		return fmt.Errorf("probe handlers: %d requests not answered 200", bad)
	}
	return nil
}

func probePersist(r *rng.Source, scratch string, out layerSet) error {
	dir := filepath.Join(scratch, "probe-persist")
	defer os.RemoveAll(dir)
	keep := func([]byte) error { return nil }
	store, _, err := persist.Open(dir, persist.Options{SyncInterval: time.Hour}, keep, func(uint64, []byte) error { return nil })
	if err != nil {
		return err
	}
	st := genStream(r, 0, "probe", "", 16, 32, 256)
	var failed error
	appends := timed(len(st.batches)*4, func(i int) {
		if _, err := store.Append(st.batches[i%len(st.batches)].body); err != nil {
			failed = err
		}
	})
	out.put("persist.append_us_p50", quantile(appends, 0.5)/1e3, "us")
	// One group commit: eight batches buffered, then written and fsynced.
	flushes := timed(12, func(int) {
		for b := 0; b < 8; b++ {
			if _, err := store.Append(st.batches[b].body); err != nil {
				failed = err
			}
		}
		if err := store.Flush(); err != nil {
			failed = err
		}
	})
	out.put("persist.flush_ms_p50", quantile(flushes, 0.5)/1e6, "ms")
	records := make([][]byte, 32)
	for i := range records {
		records[i] = st.batches[i%len(st.batches)].body
	}
	t0 := time.Now()
	cut, err := store.Rotate()
	if err == nil {
		err = store.WriteSnapshot(cut, records)
	}
	out.put("persist.snapshot_ms", float64(time.Since(t0))/1e6, "ms")
	if cerr := store.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = failed
	}
	return err
}
