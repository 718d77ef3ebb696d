// Router: the fleet's thin stateless entry point. It terminates no
// controller logic itself — every /v1/{infer,observe,schedule,joint}
// request names a cell (query parameter or X-Blu-Cell header) and is
// forwarded verbatim to the shard the consistent-hash ring assigns
// that cell, with the response relayed byte-identically (including the
// X-Blu-Cache header), so clients see exactly the bytes the owning
// shard produced regardless of which router instance they entered
// through. The router also hosts the coordinator surface:
// GET /v1/fleet/map merges every shard's published blueprints into one
// global interference map, and GET /metrics aggregates shard metric
// snapshots.
package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"blu/internal/obs"
)

var (
	obsRouted        = obs.GetCounter("fleet_routed_total")
	obsRouteError    = obs.GetCounter("fleet_route_error_total")
	obsMapRequests   = obs.GetCounter("fleet_map_requests_total")
	obsMergeHTs      = obs.GetCounter("fleet_merge_hts_total")
	obsMergeConflict = obs.GetCounter("fleet_merge_conflict_total")
)

// mergeQTol is the access-probability spread above which two cells'
// blueprints for the same global client set are reported as a merge
// conflict instead of one agreed hidden terminal.
const mergeQTol = 0.1

// relayTimeout bounds one relayed request end to end. An upstream
// exceeding it answers 504; a dead shard answers 502.
const relayTimeout = 2 * time.Minute

// RouterConfig parameterizes a router.
type RouterConfig struct {
	// Shards maps shard names to base URLs; the ring is built over the
	// key set with the default vnode count, as every shard's is.
	Shards map[string]string
	// Directory is the fleet-wide cell listing (map merge validation).
	Directory Directory
	// LocalMetrics serves /metrics from the local obs registry instead
	// of aggregating shard snapshots — set in all-in-one deployments
	// where router and shards share one process registry and
	// aggregation would multiply-count.
	LocalMetrics bool
}

// Router is a running fleet entry point.
type Router struct {
	cfg    RouterConfig
	mux    *http.ServeMux
	client *http.Client

	// mu guards the routing state: the ring, the shard table, and the
	// reshard fences (moving cells + per-cell in-flight counts). admit
	// resolves all of it in one critical section, so a request can
	// never route by the old ring after the swap.
	mu       sync.RWMutex
	ring     *Ring
	shards   map[string]string
	moving   map[string]bool
	inflight map[string]int

	// reshardMu serializes membership changes end to end.
	reshardMu sync.Mutex

	httpSrv  *http.Server
	listener net.Listener
}

// NewRouter builds the router over the configured shard set.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("fleet: router needs at least one shard")
	}
	if err := cfg.Directory.Validate(); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(cfg.Shards))
	shards := make(map[string]string, len(cfg.Shards))
	for n, u := range cfg.Shards {
		names = append(names, n)
		shards[n] = strings.TrimSuffix(u, "/")
	}
	rt := &Router{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		client:   &http.Client{Timeout: relayTimeout},
		ring:     NewRing(0, names...),
		shards:   shards,
		moving:   map[string]bool{},
		inflight: map[string]int{},
	}
	for _, path := range []string{"/v1/infer", "/v1/observe", "/v1/schedule", "/v1/joint"} {
		rt.mux.HandleFunc(path, rt.handleProxy)
	}
	rt.mux.HandleFunc("/v1/fleet/map", rt.handleMap)
	rt.mux.HandleFunc("/v1/fleet/reshard", rt.handleReshard)
	rt.mux.HandleFunc("/metrics", rt.handleMetrics)
	rt.mux.HandleFunc("/healthz", rt.handleHealthz)
	return rt, nil
}

// Listen binds addr and serves Handler in the background.
func (rt *Router) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	rt.listener = ln
	rt.httpSrv = &http.Server{Handler: rt.mux}
	go func() { _ = rt.httpSrv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Close stops the router's listener.
func (rt *Router) Close(ctx context.Context) error {
	if rt.httpSrv == nil {
		return nil
	}
	return rt.httpSrv.Shutdown(ctx)
}

// shardFor resolves a cell id to the owning shard's name and URL.
func (rt *Router) shardFor(cellID string) (name, url string, ok bool) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	name = rt.ring.Owner(cellID)
	url, ok = rt.shards[name]
	return name, url, ok
}

// admit resolves a cell for relaying under one critical section: a
// fenced (mid-reshard) cell is refused, otherwise the in-flight count
// rises and the current owner's URL is returned. Every admitted
// request must release the cell when its relay finishes.
func (rt *Router) admit(cellID string) (url string, moving, ok bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.moving[cellID] {
		return "", true, false
	}
	url, ok = rt.shards[rt.ring.Owner(cellID)]
	if ok {
		rt.inflight[cellID]++
	}
	return url, false, ok
}

func (rt *Router) release(cellID string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.inflight[cellID] > 1 {
		rt.inflight[cellID]--
	} else {
		delete(rt.inflight, cellID)
	}
}

// shardList snapshots the current routing table.
func (rt *Router) shardList() map[string]string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	out := make(map[string]string, len(rt.shards))
	for n, u := range rt.shards {
		out[n] = u
	}
	return out
}

// cellOf extracts the routing key: the cell query parameter, else the
// X-Blu-Cell header.
func cellOf(r *http.Request) string {
	if c := r.URL.Query().Get("cell"); c != "" {
		return c
	}
	return r.Header.Get("X-Blu-Cell")
}

// hopByHopHeaders are the connection-scoped headers a relay must not
// forward (RFC 9110 §7.6.1). Everything else crosses verbatim, both
// directions, so the client sees exactly the header set the shard
// emitted — including the binary codec's Content-Type on error paths
// and any header a future serve version adds.
var hopByHopHeaders = map[string]bool{
	"Connection":          true,
	"Keep-Alive":          true,
	"Proxy-Authenticate":  true,
	"Proxy-Authorization": true,
	"Te":                  true,
	"Trailer":             true,
	"Transfer-Encoding":   true,
	"Upgrade":             true,
}

// copyRelayHeaders copies every end-to-end header from src to dst.
// Content-Length is skipped on the wire copy — the transport derives
// it from the body it actually sends.
func copyRelayHeaders(dst, src http.Header) {
	for k, vv := range src {
		ck := http.CanonicalHeaderKey(k)
		if hopByHopHeaders[ck] || ck == "Content-Length" {
			continue
		}
		for _, v := range vv {
			dst.Add(ck, v)
		}
	}
}

// handleProxy forwards one controller request to the owning shard and
// relays the response byte-identically — status, headers (minus
// hop-by-hop), and body. A cell fenced by an in-progress reshard
// answers 307 + Retry-After with no Location: the authoritative route
// is unknown until the ring swaps, so the client retries the same URL
// after the pause (bluload handles this like a 429).
func (rt *Router) handleProxy(w http.ResponseWriter, r *http.Request) {
	cell := cellOf(r)
	if cell == "" {
		obsRouteError.Inc()
		writeRouterError(w, http.StatusBadRequest, "cell required (query parameter or X-Blu-Cell header)")
		return
	}
	base, moving, ok := rt.admit(cell)
	if moving {
		w.Header().Set("Retry-After", "1")
		writeRouterError(w, http.StatusTemporaryRedirect, fmt.Sprintf("cell %q resharding; retry", cell))
		return
	}
	if !ok {
		obsRouteError.Inc()
		writeRouterError(w, http.StatusBadGateway, fmt.Sprintf("no shard for cell %q", cell))
		return
	}
	defer rt.release(cell)
	obsRouted.Inc()
	url := base + r.URL.Path
	if q := r.URL.RawQuery; q != "" {
		url += "?" + q
	}
	preq, err := http.NewRequestWithContext(r.Context(), r.Method, url, r.Body)
	if err != nil {
		obsRouteError.Inc()
		writeRouterError(w, http.StatusInternalServerError, err.Error())
		return
	}
	copyRelayHeaders(preq.Header, r.Header)
	preq.ContentLength = r.ContentLength
	pres, err := rt.client.Do(preq)
	if err != nil {
		obsRouteError.Inc()
		// A slow shard and a dead shard are different operational
		// problems: timeouts surface as 504 (mirroring blud's own
		// per-request deadline semantics), everything else — connection
		// refused, reset, DNS — as 502.
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			writeRouterError(w, http.StatusGatewayTimeout, "shard timeout: "+err.Error())
		} else {
			writeRouterError(w, http.StatusBadGateway, "shard unreachable: "+err.Error())
		}
		return
	}
	defer pres.Body.Close()
	copyRelayHeaders(w.Header(), pres.Header)
	if pres.ContentLength >= 0 {
		w.Header().Set("Content-Length", fmt.Sprint(pres.ContentLength))
	}
	w.WriteHeader(pres.StatusCode)
	io.Copy(w, pres.Body)
}

func writeRouterError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// MapCell is one cell's freshness entry in the merged map.
type MapCell struct {
	Cell   string `json:"cell"`
	Shard  string `json:"shard"`
	N      int    `json:"n"`
	Epoch  int    `json:"epoch"`
	Digest string `json:"digest"`
	HTs    int    `json:"hts"`
	// Missing marks a cell the owning shard reported nothing for (no
	// session yet, or the shard was unreachable).
	Missing bool `json:"missing,omitempty"`
}

// MapHT is one merged hidden terminal in global UE ids.
type MapHT struct {
	// Q is the mean access probability over the contributing cells.
	Q float64 `json:"q"`
	// QSpread is max−min over contributors; above the conflict
	// tolerance the entry is flagged.
	QSpread  float64  `json:"q_spread,omitempty"`
	Clients  []int    `json:"clients"`
	Cells    []string `json:"cells"`
	Conflict bool     `json:"conflict,omitempty"`
}

// MapResponse is the GET /v1/fleet/map body: the global interference
// map merged from every shard's published blueprints.
type MapResponse struct {
	Shards    int       `json:"shards"`
	Unreached []string  `json:"unreached,omitempty"`
	Cells     []MapCell `json:"cells"`
	HTs       []MapHT   `json:"hts"`
	Conflicts int       `json:"conflicts"`
	// Merged counts per-cell HT entries that collapsed into an existing
	// global entry (the cross-cell duplication the exchange removes).
	Merged int `json:"merged"`
}

// handleMap is GET /v1/fleet/map: fetch every shard's blueprints and
// merge by global client set.
func (rt *Router) handleMap(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeRouterError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	obsMapRequests.Inc()
	shards := rt.shardList()
	resp := MapResponse{Shards: len(shards), Cells: []MapCell{}, HTs: []MapHT{}}

	cellEntries := map[string]MapCell{}
	type agg struct {
		qs    []float64
		cells []string
		set   []int
	}
	merged := map[string]*agg{}
	var keys []string

	names := make([]string, 0, len(shards))
	for n := range shards {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		bp, err := rt.fetchBlueprints(r.Context(), shards[name])
		if err != nil {
			resp.Unreached = append(resp.Unreached, name)
			continue
		}
		for _, cb := range bp.Cells {
			cellEntries[cb.Cell] = MapCell{
				Cell: cb.Cell, Shard: name, N: cb.N,
				Epoch: cb.Epoch, Digest: cb.Digest, HTs: len(cb.HTs),
			}
			for _, ht := range cb.HTs {
				key := fmt.Sprint(ht.Clients)
				a, ok := merged[key]
				if !ok {
					a = &agg{set: ht.Clients}
					merged[key] = a
					keys = append(keys, key)
				} else {
					resp.Merged++
				}
				a.qs = append(a.qs, ht.Q)
				a.cells = append(a.cells, cb.Cell)
			}
		}
	}

	// Every directory cell appears in the map, present or missing, so
	// freshness gaps are visible instead of silently absent.
	for i := range rt.cfg.Directory.Cells {
		id := rt.cfg.Directory.Cells[i].ID
		if e, ok := cellEntries[id]; ok {
			resp.Cells = append(resp.Cells, e)
		} else {
			rt.mu.RLock()
			owner := rt.ring.Owner(id)
			rt.mu.RUnlock()
			resp.Cells = append(resp.Cells, MapCell{
				Cell: id, Shard: owner, N: len(rt.cfg.Directory.Cells[i].Members), Missing: true,
			})
		}
	}

	sort.Strings(keys)
	for _, key := range keys {
		a := merged[key]
		lo, hi, sum := a.qs[0], a.qs[0], 0.0
		for _, q := range a.qs {
			sum += q
			if q < lo {
				lo = q
			}
			if q > hi {
				hi = q
			}
		}
		ht := MapHT{
			Q:       sum / float64(len(a.qs)),
			QSpread: hi - lo,
			Clients: a.set,
			Cells:   a.cells,
		}
		if ht.QSpread > mergeQTol {
			ht.Conflict = true
			resp.Conflicts++
			obsMergeConflict.Inc()
		}
		resp.HTs = append(resp.HTs, ht)
	}
	obsMergeHTs.Add(int64(len(resp.HTs)))

	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

func (rt *Router) fetchBlueprints(ctx context.Context, baseURL string) (*BlueprintsResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/v1/fleet/blueprints", nil)
	if err != nil {
		return nil, err
	}
	res, err := rt.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", res.StatusCode)
	}
	var bp BlueprintsResponse
	if err := json.NewDecoder(res.Body).Decode(&bp); err != nil {
		return nil, err
	}
	return &bp, nil
}

// handleMetrics is GET /metrics. In aggregating mode it sums every
// shard's snapshot into the router's own registry snapshot — counters,
// float counters, histograms, and timers add; gauges last-write-wins
// in shard-name order — so one scrape shows fleet-wide totals. With
// LocalMetrics it returns the local registry only (all-in-one
// deployments share one process registry and aggregation would
// multiply-count).
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if rt.cfg.LocalMetrics {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(obs.Snap())
		return
	}
	total := obs.Snap()
	shards := rt.shardList()
	names := make([]string, 0, len(shards))
	for n := range shards {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		snap, err := rt.fetchMetrics(r.Context(), shards[name])
		if err != nil {
			continue
		}
		total = sumSnapshots(total, *snap)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(total)
}

func (rt *Router) fetchMetrics(ctx context.Context, baseURL string) (*obs.Snapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	res, err := rt.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", res.StatusCode)
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(res.Body).Decode(&snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

// sumSnapshots folds b into a: counters, float counters, histograms,
// and timers add; gauges last-write-wins.
func sumSnapshots(a, b obs.Snapshot) obs.Snapshot {
	for k, v := range b.Counters {
		if a.Counters == nil {
			a.Counters = map[string]int64{}
		}
		a.Counters[k] += v
	}
	for k, v := range b.FloatCounters {
		if a.FloatCounters == nil {
			a.FloatCounters = map[string]float64{}
		}
		a.FloatCounters[k] += v
	}
	for k, v := range b.Gauges {
		if a.Gauges == nil {
			a.Gauges = map[string]float64{}
		}
		a.Gauges[k] = v
	}
	for k, v := range b.Histograms {
		if a.Histograms == nil {
			a.Histograms = map[string]obs.HistogramSnapshot{}
		}
		cur, ok := a.Histograms[k]
		if !ok {
			a.Histograms[k] = v
			continue
		}
		cur.Count += v.Count
		cur.Sum += v.Sum
		cur.Overflow += v.Overflow
		if len(cur.Buckets) == len(v.Buckets) {
			for i := range cur.Buckets {
				cur.Buckets[i].Count += v.Buckets[i].Count
			}
		}
		a.Histograms[k] = cur
	}
	for k, v := range b.Timers {
		if a.Timers == nil {
			a.Timers = map[string]obs.TimerSnapshot{}
		}
		cur, ok := a.Timers[k]
		if !ok {
			a.Timers[k] = v
			continue
		}
		cur.Count += v.Count
		cur.TotalMS += v.TotalMS
		if cur.Count > 0 {
			cur.AvgMS = cur.TotalMS / float64(cur.Count)
		}
		a.Timers[k] = cur
	}
	return a
}

// FleetHealth is the router's /healthz body.
type FleetHealth struct {
	Status string            `json:"status"`
	Shards map[string]string `json:"shards"`
}

// handleHealthz reports per-shard health: "ok" only when every shard
// answers 200.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	shards := rt.shardList()
	h := FleetHealth{Status: "ok", Shards: map[string]string{}}
	status := http.StatusOK
	for name, base := range shards {
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, base+"/healthz", nil)
		if err != nil {
			h.Shards[name] = "error"
			h.Status = "degraded"
			status = http.StatusServiceUnavailable
			continue
		}
		res, err := rt.client.Do(req)
		if err != nil {
			h.Shards[name] = "unreachable"
			h.Status = "degraded"
			status = http.StatusServiceUnavailable
			continue
		}
		res.Body.Close()
		if res.StatusCode == http.StatusOK {
			h.Shards[name] = "ok"
		} else {
			h.Shards[name] = fmt.Sprintf("status %d", res.StatusCode)
			h.Status = "degraded"
			status = http.StatusServiceUnavailable
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(h)
}
