package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"blu/internal/obs"
	"blu/internal/rng"
	"blu/internal/serve"
)

// metric is one reported number. Slices holds the per-slice values a
// window metric is the median of; -compare reads their spread.
type metric struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Slices []float64 `json:"slices,omitempty"`
}

// config is one invocation's settings.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
	short   bool
	corrupt bool
	setups  int
	clients int
	outDir  string
}

// result is everything one workload run reports.
type result struct {
	Name       string            `json:"name"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	FirstError string            `json:"first_error,omitempty"`
	EndToEnd   map[string]metric `json:"end_to_end,omitempty"`
	PerLayer   map[string]metric `json:"per_layer,omitempty"`
	Shares     map[string]metric `json:"blocking_step_shares,omitempty"`
	TraceFile  string            `json:"trace_file,omitempty"`
	Obs        *obs.Snapshot     `json:"obs,omitempty"`
}

func (r *result) fail(msg string) {
	r.Failed++
	if r.FirstError == "" {
		r.FirstError = msg
	}
}

// prepared is a workload that has been set up: pools generated, servers
// listening, sessions seeded and answers verified.
type prepared struct {
	w       workload
	s       *sut
	iters   []iterator
	clients []*client

	attempted, failed int
	scored, strict    int
	score             float64
	firstErr          string
}

func (p *prepared) close() error {
	for _, c := range p.clients {
		c.close()
	}
	return p.s.stop()
}

// prepare is one whole set-up. Its last step, the verification pass,
// sends a fixed number of requests one at a time and checks each answer
// against the in-process reference; it also warms caches and sessions,
// and its score is the run's quality.
func prepare(sp *spec, cfg *config, stateDir string) (*prepared, error) {
	w := sp.make()
	w.generate(rng.New(cfg.seed).Split(sp.name), cfg.short)
	if cfg.corrupt {
		w.arm()
	}
	s, err := w.start(stateDir)
	if err != nil {
		return nil, fmt.Errorf("%s: start: %w", sp.name, err)
	}
	s.bind(w.pools())
	p := &prepared{w: w, s: s, iters: w.iterators(cfg.clients)}
	for range p.iters {
		p.clients = append(p.clients, newClient())
	}
	count := sp.verify
	if cfg.short {
		count = sp.verifyShort
	}
	if count == 0 {
		count = len(w.pools()[0])
	}
	for i := 0; i < count; i++ {
		c := i % len(p.iters)
		rq := p.iters[c].next()
		rs, err := p.clients[c].send(rq, false)
		p.attempted++
		var v verdict
		if err == nil {
			v = p.iters[c].check(rq, &rs, true)
		}
		if !v.ok {
			p.failed++
			if p.firstErr == "" {
				p.firstErr = "verification: " + describeFailure(rq, &rs, err)
			}
			continue
		}
		if v.scored {
			p.scored++
			p.score += v.score
			if v.strict {
				p.strict++
			}
		}
	}
	return p, nil
}

func stateDir(cfg *config, name string, rep int) string {
	return filepath.Join(cfg.outDir, fmt.Sprintf("state-%s-%d-%d", name, os.Getpid(), rep))
}

// runEndToEnd measures a workload with tracing off: set-up (repeated,
// median reported), then one timed window.
func runEndToEnd(sp *spec, cfg *config) (*result, error) {
	res := &result{Name: sp.name, EndToEnd: map[string]metric{}}
	var p *prepared
	var setups []float64
	for rep := 0; rep < cfg.setups; rep++ {
		if p != nil {
			if err := p.close(); err != nil {
				return nil, fmt.Errorf("%s: stop: %w", sp.name, err)
			}
		}
		t0 := time.Now()
		var err error
		if p, err = prepare(sp, cfg, stateDir(cfg, sp.name, rep)); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer p.close()

	runtime.GC()
	obs.Reset()
	win := runWindow(p.iters, p.clients, time.Duration(cfg.seconds*float64(time.Second)), false, nil)
	snap := obs.Snap()
	res.Obs = &snap
	absorb(res, p, win)
	if ing, ok := p.w.(*ingest); ok {
		if _, err := ing.recheck(p.s); err != nil {
			res.fail("durability: " + err.Error())
		}
	}

	put := func(name, unit string, slices []float64) {
		res.EndToEnd[name] = metric{Value: median(slices), Unit: unit, Slices: slices}
	}
	res.EndToEnd["setup_s"] = metric{Value: median(setups), Unit: "s", Slices: setups}
	put("ops_per_s", "1/s", win.perSlice(func(lat []int64, a, b resources) float64 {
		return float64(len(lat)) / b.at.Sub(a.at).Seconds()
	}))
	put("latency_p50_ms", "ms", win.perSlice(func(lat []int64, _, _ resources) float64 {
		return quantile(lat, 0.50) / 1e6
	}))
	put("latency_p95_ms", "ms", win.perSlice(func(lat []int64, _, _ resources) float64 {
		return quantile(lat, 0.95) / 1e6
	}))
	put("cpu_ms_per_op", "ms", win.perSlice(func(lat []int64, a, b resources) float64 {
		return ratio(float64(b.cpu-a.cpu)/1e6, float64(len(lat)))
	}))
	put("allocs_per_op", "count", win.perSlice(func(lat []int64, a, b resources) float64 {
		return ratio(float64(b.mallocs-a.mallocs), float64(len(lat)))
	}))
	res.EndToEnd["quality"] = metric{Value: ratio(p.score, float64(p.scored)), Unit: "ratio"}
	res.EndToEnd["fail_ratio"] = metric{Value: ratio(float64(res.Failed), float64(res.Attempted)), Unit: "ratio"}
	res.Correct = res.Failed == 0 && p.scored > 0
	return res, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// absorb adds the verification pass and a window to the result's counts.
func absorb(res *result, p *prepared, win *windowResult) {
	res.Attempted += p.attempted + win.attempted
	res.Failed += p.failed + win.failed
	for _, e := range []string{p.firstErr, win.firstErr} {
		if res.FirstError == "" {
			res.FirstError = e
		}
	}
	p.attempted, p.failed = 0, 0
}

// runTraced gives the per-layer numbers: half the time untraced (the
// counters and the baseline rate), half with every request traced and
// replayed, then the layer probes.
func runTraced(sp *spec, cfg *config) (*result, error) {
	res := &result{Name: sp.name, PerLayer: map[string]metric{}, Shares: map[string]metric{}}
	layers := layerSet(res.PerLayer)
	for _, d := range perLayer {
		layers.put(d.name, 0, d.unit) // a layer off this workload's path reads 0
	}
	dir := stateDir(cfg, sp.name, 0)
	p, err := prepare(sp, cfg, dir)
	if err != nil {
		return nil, err
	}
	defer p.close()
	half := time.Duration(cfg.seconds * float64(time.Second) / 2)

	runtime.GC()
	obs.Reset()
	before := dirSize(p.s.stateDir)
	base := runWindow(p.iters, p.clients, half, false, nil)
	snap := obs.Snap()
	res.Obs = &snap
	absorb(res, p, base)
	layers.put("verify.strict_ratio", ratio(float64(p.strict), float64(p.scored)), "ratio")
	counterLayers(&snap, layers)
	processLayers(base, layers)
	if sent := observeBytes(&snap, p.w); sent > 0 {
		layers.put("persist.wal_bytes_per_payload_byte", float64(dirSize(p.s.stateDir)-before)/sent, "ratio")
	}

	durable := ""
	if p.s.stateDir != "" {
		durable = dir + "-replay"
	}
	rp, err := newReplayer(p.w, durable, len(p.iters))
	if err != nil {
		return nil, fmt.Errorf("%s: replayer: %w", sp.name, err)
	}
	defer rp.close()
	rp.epoch = time.Now()
	traced := runWindow(p.iters, p.clients, half, p.s.fl != nil, rp.hook)
	absorb(res, p, traced)
	if n := rp.failures.Load(); n > 0 {
		res.fail(fmt.Sprintf("trace: %d replays failed", n))
	}
	layers.put("process.trace_overhead_ratio",
		ratio(float64(traced.ops())/traced.seconds, float64(base.ops())/base.seconds), "ratio")
	st := rp.stats()
	if res.TraceFile, err = rp.write(cfg.outDir, sp.name, cfg.seed); err != nil {
		res.fail(err.Error())
	}
	for _, name := range shareNames {
		res.Shares[name] = metric{Value: st.share[name], Unit: "ratio"}
		layers.put("trace.share_"+name, st.share[name], "ratio")
	}
	layers.put("serve.self_us_infer", st.selfUS[0], "us")
	layers.put("serve.self_us_observe", st.selfUS[1], "us")
	layers.put("serve.self_us_schedule", st.selfUS[2], "us")
	layers.put("serve.http_added_us_p50", st.httpAddedUS, "us")
	if p.s.fl != nil {
		layers.put("fleet.relay_added_us_p50", st.relayAddedUS, "us")
		if err := fleetLayers(p, layers); err != nil {
			res.fail(err.Error())
		}
	}
	if ing, ok := p.w.(*ingest); ok {
		took, err := ing.recheck(p.s)
		if err != nil {
			res.fail("durability: " + err.Error())
		}
		layers.put("persist.recover_ms", float64(took)/1e6, "ms")
		lost, err := unsyncedAcksLost(sp, cfg)
		if err != nil {
			res.fail("abort pass: " + err.Error())
		}
		layers.put("persist.unsynced_acks_lost", float64(lost), "count")
	}
	if err := probeLayers(cfg.seed, cfg.short, cfg.outDir, layers); err != nil {
		res.fail("layer probes: " + err.Error())
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// counterLayers reads the ratios the program's own counters give for
// the window just run.
func counterLayers(s *obs.Snapshot, out layerSet) {
	c := func(name string) float64 { return float64(s.Counters[name]) }
	infers := c("blueprint_infer_total")
	out.put("blueprint.iterations_per_infer", ratio(c("blueprint_repair_iterations_total"), infers), "count")
	out.put("blueprint.starts_per_infer", ratio(c("blueprint_starts_total"), infers), "count")
	out.put("blueprint.converged_ratio", ratio(c("blueprint_converged_total"), infers), "ratio")
	out.put("blueprint.warm_hit_ratio", ratio(c("blueprint_warm_hits_total"), c("blueprint_warm_starts_total")), "ratio")
	out.put("serve.cache_hit_ratio", ratio(c("serve_cache_hit_total"), c("serve_cache_hit_total")+c("serve_cache_miss_total")), "ratio")
	out.put("serve.coalesced_total", c("serve_coalesced_total"), "count")
	out.put("serve.queue_reject_total", c("serve_queue_reject_total"), "count")
	out.put("serve.timeout_total", c("serve_timeout_total"), "count")
	out.put("serve.invalidations_per_observe", ratio(c("serve_invalidation_total"), c("serve_observe_total")), "count")
	out.put("persist.syncs_per_1k_appends", 1000*ratio(c("persist_wal_syncs_total"), c("persist_wal_appends_total")), "count")
	out.put("fleet.routed_total", c("fleet_routed_total"), "count")
	out.put("fleet.route_error_total", c("fleet_route_error_total"), "count")
}

// processLayers reports the tail and the process-wide costs of a window.
func processLayers(w *windowResult, out layerSet) {
	a, b := w.res[0], w.res[windowSlices]
	out.put("process.latency_p99_ms", quantile(w.all, 0.99)/1e6, "ms")
	out.put("process.latency_max_ms", quantile(w.all, 1)/1e6, "ms")
	out.put("process.cpu_util", ratio((b.cpu-a.cpu).Seconds(), b.at.Sub(a.at).Seconds()*float64(runtime.GOMAXPROCS(0))), "ratio")
	out.put("process.gc_cycles", float64(b.numGC-a.numGC), "count")
	out.put("process.gc_pause_ms_total", float64(b.pauseNS-a.pauseNS)/1e6, "ms")
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out.put("process.heap_live_mb", float64(ms.HeapAlloc)/(1<<20), "MB")
}

// observeBytes is the payload the window's observes carried, from the
// server's own count of them (every batch of a workload has one size).
func observeBytes(s *obs.Snapshot, w workload) float64 {
	for _, p := range w.pools() {
		if len(p) > 0 && p[0].kind == kindObserve {
			return float64(s.Counters["persist_wal_appends_total"]) * float64(len(p[0].body))
		}
	}
	return 0
}

func dirSize(dir string) int64 {
	if dir == "" {
		return 0
	}
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil // a file rotated away mid-walk is not an error here
	})
	return total
}

// fleetLayers measures what the router adds in allocations (the same
// continuing traffic sent through it and straight to the owning shard,
// one request at a time) and one blueprint-exchange round.
func fleetLayers(p *prepared, out layerSet) error {
	const n = 200
	it, cl := p.iters[0], p.clients[0]
	var perRoute [2]float64
	for route := 0; route < 2; route++ {
		m0 := mallocs()
		for i := 0; i < n; i++ {
			rq := it.next()
			rs, err := cl.send(rq, route == 1)
			if err != nil {
				return fmt.Errorf("relay probe: %w", err)
			}
			if !it.check(rq, &rs, false).ok {
				return fmt.Errorf("relay probe: %s", describeFailure(rq, &rs, nil))
			}
		}
		perRoute[route] = float64(mallocs()-m0) / n
	}
	out.put("fleet.relay_added_allocs", perRoute[0]-perRoute[1], "count")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	t0 := time.Now()
	for _, sh := range p.s.fl.Shards {
		if _, err := sh.ExchangeOnce(ctx); err != nil {
			return fmt.Errorf("exchange: %w", err)
		}
	}
	out.put("fleet.exchange_ms", float64(time.Since(t0))/1e6, "ms")
	return nil
}

// unsyncedAcksLost kills a fresh ingest server mid-stream and counts
// the acknowledged batches the reopened state no longer holds: what the
// group-commit window can lose. Reported, never gated.
func unsyncedAcksLost(sp *spec, cfg *config) (int, error) {
	one := *cfg
	one.clients, one.corrupt = 1, false
	p, err := prepare(sp, &one, stateDir(cfg, sp.name, 1))
	if err != nil {
		return 0, err
	}
	defer p.close()
	if p.failed > 0 {
		return 0, fmt.Errorf("%s", p.firstErr)
	}
	it := p.iters[0].(*streamIter)
	it.keepHist = true
	for i := 0; i < 256; i++ {
		rq := it.next()
		rs, err := p.clients[0].send(rq, false)
		if err != nil {
			return 0, err
		}
		if !it.check(rq, &rs, false).ok {
			return 0, fmt.Errorf("%s", describeFailure(rq, &rs, nil))
		}
	}
	p.s.srv.Abort()
	srv, _, err := serve.NewDurable(serve.Config{StateDir: p.s.stateDir})
	if err != nil {
		return 0, err
	}
	p.s.srv = srv
	lost := 0
	for _, cu := range it.cur {
		if len(cu.digests) == 0 {
			continue
		}
		_, dg, _, ok := srv.SessionBlueprint(cu.st.session)
		kept := -1
		if ok {
			want := fmt.Sprintf("%016x", dg)
			for k := len(cu.digests) - 1; k >= 0 && kept < 0; k-- {
				if cu.digests[k] == want {
					kept = k
				}
			}
		}
		lost += len(cu.digests) - 1 - kept
	}
	return lost, nil
}
