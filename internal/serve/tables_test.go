package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
	"testing"

	"blu/internal/blueprint"
	"blu/internal/joint"
	"blu/internal/rng"
	"blu/internal/sched"
)

// tablesTopology draws an n-client blueprint with hts overlapping hidden
// terminals — overlap is what makes the joint path do real work.
func tablesTopology(seed uint64, n, hts int) *blueprint.Topology {
	r := rng.New(seed)
	topo := &blueprint.Topology{N: n}
	for k := 0; k < hts; k++ {
		set := blueprint.NewClientSet(r.Intn(n))
		for i := 0; i < n; i++ {
			if r.Bool(0.3) {
				set = set.Add(i)
			}
		}
		topo.HTs = append(topo.HTs, blueprint.HiddenTerminal{Q: 0.1 + 0.5*r.Float64(), Clients: set})
	}
	return topo
}

// reversed is topo with its hidden-terminal list in the opposite order:
// the same blueprint to a reader, a different one to the cache.
func reversed(topo *blueprint.Topology) *blueprint.Topology {
	out := &blueprint.Topology{N: topo.N, HTs: append([]blueprint.HiddenTerminal(nil), topo.HTs...)}
	for i, j := 0, len(out.HTs)-1; i < j; i, j = i+1, j-1 {
		out.HTs[i], out.HTs[j] = out.HTs[j], out.HTs[i]
	}
	return out
}

// tablesCase is one request body and the bytes a server with no cache
// at all would answer it with.
type tablesCase struct {
	path string
	body []byte
	want []byte
}

// scheduleCase completes req (flavor, grid and deadline set by the
// caller) into a /v1/schedule body over topo with drawn rates and PF
// averages, and computes its reference answer from a fresh calculator
// and scheduler.
func scheduleCase(t *testing.T, topo *blueprint.Topology, r *rng.Source, req ScheduleRequest) tablesCase {
	t.Helper()
	req.Topology = TopologyToWire(topo)
	req.Rates = make([][]float64, topo.N)
	req.AvgThroughput = make([]float64, topo.N)
	for ue := range req.Rates {
		req.Rates[ue] = make([]float64, req.NumRB)
		for b := range req.Rates[ue] {
			req.Rates[ue][b] = float64(500 + r.Intn(9500))
		}
		req.AvgThroughput[ue] = float64(100 + r.Intn(9900))
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	env := sched.Env{NumUE: topo.N, NumRB: req.NumRB, M: req.M,
		Rate: func(ue, b int) float64 { return req.Rates[ue][b] }}
	var s interface {
		sched.Scheduler
		WarmStart([]float64)
	}
	if req.Scheduler == "aa" {
		s, err = sched.NewAccessAware(env, joint.NewCalculator(topo))
	} else {
		s, err = sched.NewSpeculative(env, joint.NewCalculator(topo))
	}
	if err != nil {
		t.Fatal(err)
	}
	s.WarmStart(req.AvgThroughput)
	sch := s.Schedule(0)
	resp := ScheduleResponse{RB: make([][]int, len(sch.RB)), DistinctUEs: sch.DistinctUEs(), Scheduler: req.Scheduler}
	for b, ues := range sch.RB {
		resp.RB[b] = append([]int{}, ues...)
	}
	want, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return tablesCase{"/v1/schedule", body, want}
}

// jointCase builds a /v1/joint body over topo and its reference answer
// from a fresh calculator.
func jointCase(t *testing.T, topo *blueprint.Topology, r *rng.Source) tablesCase {
	t.Helper()
	req := JointRequest{Topology: TopologyToWire(topo)}
	var clear, blocked blueprint.ClientSet
	for i := 0; i < topo.N; i++ {
		switch r.Intn(3) {
		case 0:
			req.Clear, clear = append(req.Clear, i), clear.Add(i)
		case 1:
			req.Blocked, blocked = append(req.Blocked, i), blocked.Add(i)
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	calc := joint.NewCalculator(topo)
	resp := JointResponse{Prob: calc.Prob(clear, blocked), Marginals: make([]float64, topo.N)}
	for i := range resp.Marginals {
		resp.Marginals[i] = calc.Marginal(i)
	}
	want, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return tablesCase{"/v1/joint", body, want}
}

// postAll sends every case from `clients` goroutines and requires every
// 200 body to equal the reference bytes. Clients walk the list in pairs:
// the two of a pair start at the same offset, so they keep meeting on
// the same blueprint, while pairs start half a list apart and interleave
// endpoints and topologies. It returns the number of 200s; tolerate504
// admits deadline expiries.
func postAll(t *testing.T, url string, cases []tablesCase, clients int, tolerate504 bool) int {
	t.Helper()
	var wg sync.WaitGroup
	oks := make([]int, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := range cases {
				tc := &cases[(k+(c/2)*len(cases)/2)%len(cases)]
				resp, err := http.Post(url+tc.path, "application/json", bytes.NewReader(tc.body))
				if err != nil {
					t.Errorf("POST %s: %v", tc.path, err)
					return
				}
				var got bytes.Buffer
				_, err = got.ReadFrom(resp.Body)
				resp.Body.Close()
				switch {
				case err != nil:
					t.Errorf("read %s: %v", tc.path, err)
				case resp.StatusCode == http.StatusGatewayTimeout && tolerate504:
				case resp.StatusCode != http.StatusOK:
					t.Errorf("%s: status %d: %s", tc.path, resp.StatusCode, got.Bytes())
				case !bytes.Equal(got.Bytes(), tc.want):
					t.Errorf("%s answered\n%s\nwant the uncached reference\n%s", tc.path, got.Bytes(), tc.want)
				default:
					oks[c]++
				}
			}
		}(c)
	}
	wg.Wait()
	total := 0
	for _, n := range oks {
		total += n
	}
	return total
}

// setBudget changes the cache's byte budget, the way a smaller constant
// would.
func (c *tablesCache) setBudget(max int) {
	c.mu.Lock()
	c.max = max
	c.mu.Unlock()
}

func (c *tablesCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// TestJointTablesCacheByteIdentical is the cache's contract under
// concurrency (run with -race): interleaved blu/aa schedule and joint
// requests over a handful of blueprints — two of them the same terminals
// in opposite order, and several clients on the same blueprint at the
// same time — all answer with exactly the bytes of a fresh calculator
// and scheduler, while the cache fills, while every release is evicted,
// and after it refills.
func TestJointTablesCacheByteIdentical(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4})
	base := tablesTopology(1, 12, 6)
	topos := []*blueprint.Topology{
		base, reversed(base), tablesTopology(2, 8, 4), tablesTopology(3, 16, 5), tablesTopology(4, 10, 7),
	}
	if topologyKey(topos[0]) == topologyKey(topos[1]) {
		t.Fatal("terminal order is not part of the cache key")
	}
	r := rng.New(77)
	blu := ScheduleRequest{Scheduler: "blu", NumRB: 12, M: 3}
	aa := ScheduleRequest{Scheduler: "aa", NumRB: 12, M: 3}
	var cases []tablesCase
	for round := 0; round < 6; round++ {
		for _, topo := range topos {
			cases = append(cases,
				scheduleCase(t, topo, r, blu),
				scheduleCase(t, topo, r, aa),
				jointCase(t, topo, r),
				scheduleCase(t, topo, r, blu))
		}
	}

	hit0, miss0, evict0 := obsTablesHit.Value(), obsTablesMiss.Value(), obsTablesEvict.Value()
	if got := postAll(t, ts.URL, cases, 4, false); got != 4*len(cases) {
		t.Fatalf("%d of %d requests answered 200", got, 4*len(cases))
	}
	if obsTablesHit.Value() == hit0 || obsTablesMiss.Value() == miss0 {
		t.Errorf("filling pass: hits %d misses %d, want both to advance",
			obsTablesHit.Value()-hit0, obsTablesMiss.Value()-miss0)
	}
	if n := s.tables.len(); n != len(topos) {
		t.Errorf("cache holds %d entries for %d distinct blueprints", n, len(topos))
	}
	if got := obsTablesBytes.Value(); got <= 0 || got > jointTablesMaxBytes {
		t.Errorf("serve_joint_tables_bytes = %v, want inside (0, %d]", got, jointTablesMaxBytes)
	}

	// A one-byte budget evicts every entry the moment it is released.
	s.tables.setBudget(1)
	postAll(t, ts.URL, cases, 4, false)
	if obsTablesEvict.Value() == evict0 {
		t.Error("one-byte budget evicted nothing")
	}
	if n := s.tables.len(); n != 0 {
		t.Errorf("cache holds %d entries under a one-byte budget", n)
	}

	s.tables.setBudget(jointTablesMaxBytes)
	hit1 := obsTablesHit.Value()
	postAll(t, ts.URL, cases, 4, false)
	if obsTablesHit.Value() == hit1 {
		t.Error("refilled cache served no hits")
	}
}

// TestExpiredRequestKeepsItsTables: a request whose deadline passes
// while its job is running answers 504 at once, but the job still owns
// the tables until it finishes — they must not reach another request
// for the same blueprint in the meantime. The race detector is the
// oracle for "mid-use"; byte-identical answers for the patient requests
// are the oracle for the table contents.
func TestExpiredRequestKeepsItsTables(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4})
	// Dense and wide enough that even a warm subframe outlasts a 1 ms
	// deadline.
	topo := tablesTopology(8, 20, 8)
	r := rng.New(5)
	var hasty, patient []tablesCase
	for k := 0; k < 8; k++ {
		hasty = append(hasty, scheduleCase(t, topo, r, ScheduleRequest{Scheduler: "blu", NumRB: 600, M: 4, TimeoutMS: 1}))
		patient = append(patient,
			scheduleCase(t, topo, r, ScheduleRequest{Scheduler: "blu", NumRB: 12, M: 3}),
			jointCase(t, topo, r))
	}

	acquired0 := obsTablesHit.Value() + obsTablesMiss.Value()
	var wg sync.WaitGroup
	var hastyOK int
	wg.Add(1)
	go func() {
		defer wg.Done()
		hastyOK = postAll(t, ts.URL, hasty, 2, true)
	}()
	patientOK := postAll(t, ts.URL, patient, 2, false)
	wg.Wait()
	s.jobs.Wait() // jobs abandoned by their handlers have finished too

	// Every job that ran acquired tables once. More acquisitions than
	// 200s means some job outlived its request — the case under test.
	acquired := int(obsTablesHit.Value()+obsTablesMiss.Value()-acquired0) - patientOK - hastyOK
	if acquired <= 0 {
		t.Skipf("no deadline expired mid-job (%d hasty requests answered 200)", hastyOK)
	}
	if n := s.tables.len(); n != 1 {
		t.Errorf("cache holds %d entries for one blueprint", n)
	}
}

// TestShedScheduleTouchesNoTables is the backpressure regression: table
// acquisition and scheduler construction used to run on the HTTP
// goroutine before submit, so a request about to be shed with 429 had
// already paid for them and QueueDepth/Workers did not bound the work.
func TestShedScheduleTouchesNoTables(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	defer wedge(t, s)()

	acquired0 := obsTablesHit.Value() + obsTablesMiss.Value()
	for _, flavor := range []string{"blu", "aa"} {
		tc := scheduleCase(t, tablesTopology(6, 10, 4), rng.New(1), ScheduleRequest{Scheduler: flavor, NumRB: 12, M: 3})
		resp := post(t, ts.URL+tc.path, tc.body)
		if body := readAll(t, resp); resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("%s: status %d, want 429 (body %s)", flavor, resp.StatusCode, body)
		}
	}
	if got := obsTablesHit.Value() + obsTablesMiss.Value() - acquired0; got != 0 {
		t.Errorf("shed requests acquired joint tables %d times", got)
	}
	if n := s.tables.len(); n != 0 {
		t.Errorf("shed requests left %d cache entries", n)
	}
}

// TestTablesCacheBudget covers the cache's own rules: entries leave in
// least-recently-released order once the accounted bytes pass the
// budget, and the second release of one key is dropped.
func TestTablesCacheBudget(t *testing.T) {
	topos := []*blueprint.Topology{tablesTopology(1, 6, 2), tablesTopology(2, 6, 2), tablesTopology(3, 6, 2)}
	key0, t0 := newTablesCache(1 << 20).acquire(topos[0])
	per := 2*len(key0) + t0.Bytes()

	c := newTablesCache(2*per + per/2) // room for two entries
	evict0 := obsTablesEvict.Value()
	for _, topo := range topos {
		key, tables := c.acquire(topo)
		c.release(key, tables)
	}
	if c.len() != 2 || c.bytes != 2*per {
		t.Fatalf("cache holds %d entries/%d bytes, want 2/%d", c.len(), c.bytes, 2*per)
	}
	if got := obsTablesEvict.Value() - evict0; got != 1 {
		t.Errorf("%d evictions, want 1", got)
	}
	if _, ok := c.items[topologyKey(topos[0])]; ok {
		t.Error("the least recently released entry survived")
	}

	// Two requests race on topos[1]: the second finds it checked out,
	// builds its own, and loses on release.
	key, first := c.acquire(topos[1])
	_, second := c.acquire(topos[1])
	if first == second {
		t.Fatal("one entry checked out twice")
	}
	c.release(key, first)
	c.release(key, second)
	if _, kept := c.acquire(topos[1]); kept != first {
		t.Error("the second release of a key replaced the first")
	}
	if c.bytes != per {
		t.Errorf("accounted %d bytes with one resident entry, want %d", c.bytes, per)
	}
}
