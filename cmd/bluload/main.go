// Command bluload is a deterministic closed-loop load generator for
// blud. It synthesizes a seeded pool of request payloads (random
// hidden-terminal topologies rendered as measurements, joint queries,
// and schedule requests), drives them against a running daemon from a
// fixed worker count, and reports throughput plus latency percentiles
// per endpoint. The request mix is a pure function of (seed, request
// index), so two runs against equivalent servers issue byte-identical
// request streams.
//
// Usage:
//
//	bluload -addr HOST:PORT [flags]
//
// Flags:
//
//	-addr a      target daemon address (required)
//	-seed n      payload/mix seed (default 1)
//	-c n         concurrent closed-loop workers (default 4)
//	-n n         total requests (default 300; ignored when -duration set)
//	-duration d  run for a wall-clock window instead of a fixed count
//	-mix m       traffic mix: default (60% inline infer / 20% joint /
//	             20% schedule) or observe (30% /v1/observe batches, 30%
//	             session-keyed infers solved from the live windowed
//	             estimate, 20% joint, 20% schedule — the streaming
//	             refresh loop under load) over the sessions load-a..d.
//	             Sessions are pre-seeded synchronously before the window
//	             starts, so no worker races a 404.
//	-cells n     fleet mode: target a fleet router instead of a single
//	             daemon and drive the observe mix over n cells — one
//	             canonical cell:<id> session per cell, every request
//	             routed with ?cell=, joint/schedule cycled across cells
//	             round-robin. The cell directory is derived from
//	             (-cells, -seed), the same derivation blud uses, so
//	             membership agrees with the fleet without shared files.
//	             Manifest phases are named Fleet/* and the embedded
//	             /metrics snapshot is the router's fleet-wide aggregate.
//	-codec c     infer wire codec: json (default) or binary — binary
//	             sends serve's length-prefixed frames and asks for them
//	             back via Accept, so comparing the two runs isolates
//	             the JSON tax (joint/schedule stay JSON either way). In
//	             the observe mix, binary applies to the observe frames;
//	             session infers stay JSON so the cache/invalidation
//	             path is driven identically under both codecs.
//	-o file      write an obs.Manifest JSON: one phase per endpoint
//	             (Serve/infer, Serve/joint, Serve/schedule, and
//	             Serve/observe in the observe mix) whose detail carries
//	             n/mean/p50/p90/p99 and whose duration is the summed
//	             request time; the server's /metrics snapshot is the
//	             manifest's metrics, so its serve_cache_* and
//	             serve_observe_* counters ride along
//
// Exit status is nonzero when any request fails (transport error or a
// status other than 200/429/307; 429s are backpressure and 307s are
// reshard fences, counted but not failures).
//
// Backpressure is honored, not just counted: a 429 carrying
// Retry-After makes the worker sleep out the advertised horizon —
// capped, with seeded jitter so two runs back off identically and a
// worker fleet never retries in lockstep — and retry the same request
// up to three more times before letting the rejection stand. A 307
// (a fleet router fencing a mid-reshard cell) is handled the same way:
// sleep out Retry-After and retry the same URL, which routes to the
// cell's new owner once the ring swaps.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"blu/internal/blueprint"
	"blu/internal/fleet"
	"blu/internal/obs"
	"blu/internal/rng"
	"blu/internal/serve"
	"blu/internal/stats"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bluload:", err)
		os.Exit(1)
	}
}

// endpoint indexes the request kinds. A request for endpoint ep goes
// to /v1/<epNames[ep]> and reports as phase Serve/<name> (Fleet/<name>
// through a router).
const (
	epInfer = iota
	epJoint
	epSchedule
	epObserve
	numEndpoints
)

var epNames = [numEndpoints]string{"infer", "joint", "schedule", "observe"}

// target is one streaming session the pool feeds: its id, its client
// count, and the routing query every request for it carries ("" against
// a single daemon).
type target struct {
	session string
	n       int
	query   string
}

// poolTargets lists the sessions a run feeds: one cell:<id> session per
// cell of the directory (-cells) derives from (cells, seed), the four
// load-* sessions for -mix observe, and none for the default mix.
func poolTargets(seed uint64, mix string, cells int) ([]target, error) {
	var targets []target
	switch {
	case cells > 0:
		dir, err := fleet.DefaultDirectory(cells, seed)
		if err != nil {
			return nil, fmt.Errorf("-cells %d: %w", cells, err)
		}
		for _, c := range dir.Cells {
			targets = append(targets, target{fleet.SessionName(c.ID), len(c.Members), "?cell=" + c.ID})
		}
	case mix == "observe":
		r := rng.New(seed).Split("sessions")
		for _, id := range []string{"load-a", "load-b", "load-c", "load-d"} {
			targets = append(targets, target{id, 4 + r.Intn(6), ""})
		}
	}
	return targets, nil
}

// payload is one request body and its routing query.
type payload struct {
	body  []byte
	query string
}

// payloadPool is the seeded request corpus: a small pool per endpoint,
// cycled by request index. The infer pool is deliberately smaller than
// typical request counts so repeats exercise the daemon's result cache.
type payloadPool struct {
	byEndpoint [numEndpoints][]payload
	// binaryEp marks endpoints whose bodies are binary frames, so the
	// worker sets the matching Content-Type/Accept headers.
	binaryEp [numEndpoints]bool
	// seedObserve holds each target's first observe batch, posted
	// synchronously before the measurement window so every session a
	// worker's infer names already exists.
	seedObserve []payload
}

// randTopo draws a random hidden-terminal layout over 4..9 clients.
func randTopo(r *rng.Source) *blueprint.Topology {
	n := 4 + r.Intn(6)
	topo := &blueprint.Topology{N: n}
	for h := 0; h < 1+r.Intn(2); h++ {
		size := 2 + r.Intn(2)
		var set blueprint.ClientSet
		for set.Count() < size {
			set = set.Add(r.Intn(n))
		}
		topo.HTs = append(topo.HTs, blueprint.HiddenTerminal{
			Q:       0.2 + 0.4*r.Float64(),
			Clients: set,
		})
	}
	return topo
}

// buildPool synthesizes the corpus from seed and targets alone.
//
// Without targets, infers carry measurements inline: the analytic access
// distributions of a random truth topology, so every infer is a
// well-posed instance the solver can invert. With binary those bodies
// are serve's binary frames — the same requests after decoding, so both
// codecs hit identical cache/coalescing keys.
//
// With targets, each target gets observe batches over its own client
// count (binary frames with binary; every session seals every other
// batch so epochs rotate and digests keep moving) and one session-keyed
// JSON infer, so the cache/invalidation path runs identically under
// both codecs. Joint and schedule bodies are stateless; they cycle over
// the targets' routing queries so a router's proxy path sees every
// shard.
func buildPool(seed uint64, binary bool, targets []target) *payloadPool {
	r := rng.New(seed).Split("payloads")
	pool := &payloadPool{}
	add := func(ep int, body []byte, query string) {
		pool.byEndpoint[ep] = append(pool.byEndpoint[ep], payload{body, query})
	}
	query := func(k int) string {
		if len(targets) == 0 {
			return ""
		}
		return targets[k%len(targets)].query
	}

	if len(targets) == 0 {
		pool.binaryEp[epInfer] = binary
		ri := r.Split("infer")
		for k := 0; k < 8; k++ {
			topo := randTopo(ri)
			mw := serve.MeasurementsWire{N: topo.N, P: make([]float64, topo.N)}
			for i := 0; i < topo.N; i++ {
				mw.P[i] = topo.AccessProb(i)
				for j := i + 1; j < topo.N; j++ {
					mw.Pairs = append(mw.Pairs, serve.PairProb{I: i, J: j, P: topo.PairProb(i, j)})
				}
			}
			req := serve.InferRequest{Measurements: mw, Options: serve.InferOptionsWire{Seed: ri.Uint64()}}
			var body []byte
			if binary {
				body, _ = serve.EncodeInferRequest(&req)
			} else {
				body, _ = json.Marshal(req)
			}
			add(epInfer, body, "")
		}
	}

	// Observe batches are laid out batch-major — every target's first
	// batch, then every target's second — so consecutive observes land
	// on different sessions.
	pool.binaryEp[epObserve] = binary
	const batchesPerTarget = 4
	batches := make([][]byte, len(targets)*batchesPerTarget)
	ro := r.Split("observe")
	for ti, tg := range targets {
		rt := ro.SplitIndex("target", ti)
		for k := 0; k < batchesPerTarget; k++ {
			req := serve.ObserveRequest{Session: tg.session, N: tg.n, Seal: k%2 == 1}
			for o := 0; o < 8; o++ {
				var ob serve.ObservationWire
				for c := 0; c < tg.n; c++ {
					if rt.Intn(4) > 0 {
						ob.Scheduled = append(ob.Scheduled, c)
						if rt.Intn(3) > 0 {
							ob.Accessed = append(ob.Accessed, c)
						}
					}
				}
				req.Observations = append(req.Observations, ob)
			}
			body := &batches[k*len(targets)+ti]
			if binary {
				*body, _ = serve.EncodeObserveRequest(&req)
			} else {
				*body, _ = json.Marshal(req)
			}
		}
		body, _ := json.Marshal(serve.InferRequest{Session: tg.session, Options: serve.InferOptionsWire{Seed: 100 + uint64(ti)}})
		add(epInfer, body, tg.query)
	}
	for i, body := range batches {
		add(epObserve, body, query(i))
	}
	pool.seedObserve = pool.byEndpoint[epObserve][:len(targets)]

	rj := r.Split("joint")
	for k := 0; k < 16; k++ {
		topo := randTopo(rj)
		clear := []int{rj.Intn(topo.N)}
		blocked := []int{}
		if b := rj.Intn(topo.N); b != clear[0] {
			blocked = append(blocked, b)
		}
		body, _ := json.Marshal(serve.JointRequest{Topology: serve.TopologyToWire(topo), Clear: clear, Blocked: blocked})
		add(epJoint, body, query(k))
	}
	rs := r.Split("schedule")
	for k := 0; k < 16; k++ {
		topo := randTopo(rs)
		rates := make([][]float64, topo.N)
		for i := range rates {
			rates[i] = []float64{(1 + 9*rs.Float64()) * 1e6}
		}
		body, _ := json.Marshal(serve.ScheduleRequest{
			Topology:  serve.TopologyToWire(topo),
			NumRB:     25,
			M:         2 + rs.Intn(3),
			Scheduler: [3]string{"blu", "aa", "pf"}[rs.Intn(3)],
			Rates:     rates,
		})
		add(epSchedule, body, query(k))
	}
	return pool
}

// pick maps a request index onto (endpoint, payload), the deterministic
// mix. Without sessions: 60% infer (cycling a small pool, so the cache
// sees repeats), 20% joint, 20% schedule. With sessions: 30% observe,
// 30% session infer, 20% joint, 20% schedule — observes and session
// infers interleave on the same sessions, so digests move under
// in-flight infers and the invalidation path runs for real.
func (p *payloadPool) pick(idx int64) (int, payload) {
	ep := epInfer
	switch idx % 10 {
	case 0, 1, 2:
		if len(p.byEndpoint[epObserve]) > 0 {
			ep = epObserve
		}
	case 6, 7:
		ep = epJoint
	case 8, 9:
		ep = epSchedule
	}
	pl := p.byEndpoint[ep]
	return ep, pl[int(idx/10)%len(pl)]
}

// tally accumulates one worker's observations, merged after the run so
// the hot loop takes no locks.
type tally struct {
	latencies [numEndpoints][]float64 // milliseconds
	ok        [numEndpoints]int
	rejected  int // 429 backpressure responses received
	fenced    int // 307 reshard-fence responses received
	retried   int // backoff sleeps taken honoring Retry-After
	failed    int
	firstErr  string
}

// backoff limits for honoring Retry-After: at most three retries per
// request, never sleeping longer than the cap regardless of what the
// server advertises.
const (
	maxRetryAttempts = 3
	maxBackoff       = 2 * time.Second
	defaultBackoff   = 100 * time.Millisecond
)

// retryAfterDelay converts a 429's Retry-After header into a bounded,
// seeded-jittered sleep: the advertised seconds (or a small default
// when absent/unparsable), capped at maxBackoff, scaled by a uniform
// [0.5, 1.0) draw from the worker's own stream so backoff is
// deterministic per (seed, worker) yet staggered across the fleet.
func retryAfterDelay(header string, r *rng.Source) time.Duration {
	d := defaultBackoff
	if secs, err := strconv.Atoi(strings.TrimSpace(header)); err == nil && secs >= 0 {
		d = time.Duration(secs) * time.Second
	}
	if d > maxBackoff {
		d = maxBackoff
	}
	return time.Duration((0.5 + 0.5*r.Float64()) * float64(d))
}

func run(args []string) error {
	fs := flag.NewFlagSet("bluload", flag.ContinueOnError)
	addr := fs.String("addr", "", "target daemon address (host:port)")
	seed := fs.Uint64("seed", 1, "payload and mix seed")
	conc := fs.Int("c", 4, "concurrent closed-loop workers")
	total := fs.Int64("n", 300, "total requests (ignored when -duration is set)")
	duration := fs.Duration("duration", 0, "run for this long instead of a fixed count")
	mix := fs.String("mix", "default", "traffic mix: default or observe")
	cells := fs.Int("cells", 0, "fleet mode: per-cell mix over this many cells through a fleet router (0 = single daemon)")
	codec := fs.String("codec", "json", "infer wire codec: json or binary")
	out := fs.String("o", "", "write an obs.Manifest JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr == "" {
		return fmt.Errorf("-addr is required")
	}
	if *conc < 1 {
		return fmt.Errorf("-c must be positive")
	}
	if *codec != "json" && *codec != "binary" {
		return fmt.Errorf("-codec must be json or binary, got %q", *codec)
	}
	if *mix != "default" && *mix != "observe" {
		return fmt.Errorf("-mix must be default or observe, got %q", *mix)
	}
	if *cells < 0 {
		return fmt.Errorf("-cells must be >= 0, got %d", *cells)
	}
	base := "http://" + *addr

	// Liveness gate before spending the measurement window. A fleet
	// router's /healthz carries the same "status" field and reports
	// "ok" only when every shard answers, so the gate covers the whole
	// fleet in -cells mode.
	if err := checkHealth(base); err != nil {
		return err
	}

	targets, err := poolTargets(*seed, *mix, *cells)
	if err != nil {
		return err
	}
	pool := buildPool(*seed, *codec == "binary", targets)
	phase := "Serve/"
	if *cells > 0 {
		phase = "Fleet/"
	}
	client := &http.Client{Timeout: 60 * time.Second}
	send := func(ep int, pl payload) (*http.Response, []byte, error) {
		return post(client, base+"/v1/"+epNames[ep]+pl.query, pl.body, pool.binaryEp[ep])
	}

	// Mint every session synchronously before workers start, so no
	// concurrent session infer races its creation to a 404.
	for i, pl := range pool.seedObserve {
		resp, rbody, err := send(epObserve, pl)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("%d %s", resp.StatusCode, bytes.TrimSpace(rbody))
		}
		if err != nil {
			return fmt.Errorf("session pre-seed %d: %w", i, err)
		}
	}
	man := obs.NewManifest("bluload", args)
	man.Seed = *seed
	var next atomic.Int64
	start := time.Now()
	deadline := time.Time{}
	if *duration > 0 {
		deadline = start.Add(*duration)
		*total = 1 << 62
	}

	tallies := make([]tally, *conc)
	var wg sync.WaitGroup
	for w := 0; w < *conc; w++ {
		wg.Add(1)
		go func(w int, tl *tally) {
			defer wg.Done()
			// Each worker's backoff jitter is its own seeded stream, so a
			// rerun with the same (seed, c) sleeps identically.
			br := rng.New(*seed).SplitIndex("backoff", w)
			for {
				idx := next.Add(1) - 1
				if idx >= *total {
					return
				}
				if !deadline.IsZero() && time.Now().After(deadline) {
					return
				}
				ep, pl := pool.pick(idx)
				for attempt := 0; ; attempt++ {
					t0 := time.Now()
					resp, rbody, err := send(ep, pl)
					lat := float64(time.Since(t0)) / float64(time.Millisecond)
					if err != nil {
						tl.failed++
						if tl.firstErr == "" {
							tl.firstErr = err.Error()
						}
						break
					}
					if resp.StatusCode == http.StatusOK {
						tl.ok[ep]++
						tl.latencies[ep] = append(tl.latencies[ep], lat)
						break
					}
					if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusTemporaryRedirect {
						// Honor the shed: sleep out the advertised horizon and
						// retry the same request, up to the attempt cap. Past
						// the window deadline the rejection stands — the run is
						// over. A 307 is the fleet router fencing a mid-reshard
						// cell; retrying the same URL reaches the new owner
						// after the ring swap (no Location is sent, so the
						// client never follows it automatically).
						if resp.StatusCode == http.StatusTemporaryRedirect {
							tl.fenced++
						} else {
							tl.rejected++
						}
						past := !deadline.IsZero() && time.Now().After(deadline)
						if attempt >= maxRetryAttempts || past {
							break
						}
						tl.retried++
						time.Sleep(retryAfterDelay(resp.Header.Get("Retry-After"), br))
						continue
					}
					tl.failed++
					if tl.firstErr == "" {
						tl.firstErr = fmt.Sprintf("/v1/%s: %d %s", epNames[ep], resp.StatusCode, bytes.TrimSpace(rbody))
					}
					break
				}
			}
		}(w, &tallies[w])
	}
	wg.Wait()
	wall := time.Since(start)

	var merged tally
	for i := range tallies {
		tl := &tallies[i]
		for ep := 0; ep < numEndpoints; ep++ {
			merged.ok[ep] += tl.ok[ep]
			merged.latencies[ep] = append(merged.latencies[ep], tl.latencies[ep]...)
		}
		merged.rejected += tl.rejected
		merged.fenced += tl.fenced
		merged.retried += tl.retried
		merged.failed += tl.failed
		if merged.firstErr == "" {
			merged.firstErr = tl.firstErr
		}
	}
	// Concatenation order above follows worker index, not completion
	// time; sort so percentile output is stable run to run.
	for ep := 0; ep < numEndpoints; ep++ {
		sort.Float64s(merged.latencies[ep])
	}

	totalOK := 0
	for ep := 0; ep < numEndpoints; ep++ {
		totalOK += merged.ok[ep]
	}
	fmt.Printf("bluload: %d ok, %d rejected (429), %d fenced (307), %d retried, %d failed in %v (%.1f req/s)\n",
		totalOK, merged.rejected, merged.fenced, merged.retried, merged.failed, wall.Round(time.Millisecond),
		float64(totalOK)/wall.Seconds())

	for ep := 0; ep < numEndpoints; ep++ {
		lats := merged.latencies[ep]
		if len(lats) == 0 {
			if len(pool.byEndpoint[ep]) == 0 {
				continue // endpoint not in this mix
			}
			fmt.Printf("  %-16s no completed requests\n", phase+epNames[ep])
			continue
		}
		var sum float64
		for _, l := range lats {
			sum += l
		}
		mean := sum / float64(len(lats))
		p50, _ := stats.Percentile(lats, 50)
		p90, _ := stats.Percentile(lats, 90)
		p99, _ := stats.Percentile(lats, 99)
		detail := fmt.Sprintf("n=%d mean=%.2fms p50=%.2fms p90=%.2fms p99=%.2fms", len(lats), mean, p50, p90, p99)
		fmt.Printf("  %-16s %s\n", phase+epNames[ep], detail)
		man.AddPhase(phase+epNames[ep], detail, time.Duration(sum*float64(time.Millisecond)))
	}

	// The manifest's metrics are the server's snapshot, not this
	// process's: the serve_cache_* and queue counters live in the daemon,
	// and this is how they reach the file for ci.sh to assert on.
	man.Finish()
	if err := getJSON(base+"/metrics", &man.Metrics); err != nil {
		fmt.Fprintf(os.Stderr, "bluload: metrics fetch failed: %v\n", err)
	}

	if *out != "" {
		if err := man.Write(*out); err != nil {
			return err
		}
		fmt.Printf("bluload: report written to %s\n", *out)
	}

	if merged.failed > 0 {
		return fmt.Errorf("%d requests failed (first: %s)", merged.failed, merged.firstErr)
	}
	if totalOK == 0 {
		return fmt.Errorf("no requests completed")
	}
	return nil
}

// post sends one request body, with the binary codec's Content-Type
// and Accept when binary, and returns the response with its body read
// and closed.
func post(client *http.Client, url string, body []byte, binary bool) (*http.Response, []byte, error) {
	hreq, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	if binary {
		hreq.Header.Set("Content-Type", serve.ContentTypeBinary)
		hreq.Header.Set("Accept", serve.ContentTypeBinary)
	} else {
		hreq.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(hreq)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	rbody, err := io.ReadAll(resp.Body)
	return resp, rbody, err
}

func checkHealth(base string) error {
	var h serve.HealthResponse
	if err := getJSON(base+"/healthz", &h); err != nil || h.Status != "ok" {
		return fmt.Errorf("daemon unhealthy: status %q (%v)", h.Status, err)
	}
	return nil
}

// getJSON decodes the JSON body of a GET.
func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}
