// Shard: one blud-style controller owning a subset of the fleet's
// cells. A Shard wraps a serve.Server (the full single-cell serving
// stack — coalescing, caching, sessions, durability) and adds the
// fleet surface: cell ownership derived from the consistent-hash ring,
// the periodic blueprint-exchange loop, and two fleet endpoints —
// POST /v1/fleet/exchange (receive border reports) and
// GET /v1/fleet/blueprints (publish owned cells' inferred blueprints
// for the coordinator's map merge).
package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"blu/internal/serve"
)

// ShardConfig parameterizes one shard.
type ShardConfig struct {
	// Name is the shard's stable identity on the ring ("shard-0", ...).
	// Restarting a shard under the same name preserves its cell
	// assignment.
	Name string
	// ShardNames is the fleet membership the ring is built over; it must
	// contain Name.
	ShardNames []string
	// Directory is the fleet-wide cell listing.
	Directory Directory
	// Peers maps shard names to base URLs ("http://host:port") for
	// exchange shipping. The shard's own entry is ignored.
	Peers map[string]string
	// Serve configures the wrapped server (durability via StateDir).
	Serve serve.Config
	// ExchangeInterval starts the periodic exchange loop when positive;
	// zero leaves exchange manual (ExchangeOnce).
	ExchangeInterval time.Duration
}

// Shard is a running fleet member.
type Shard struct {
	name      string
	ring      atomic.Pointer[Ring] // swapped by SetMembership during a reshard
	directory Directory
	srv       *serve.Server
	mux       *http.ServeMux
	client    *http.Client

	// ctx bounds every background round (exchange shipping) by the
	// shard's lifetime: stopExchange cancels it, so a wedged peer cannot
	// hold Drain/Abort for the full client timeout.
	ctx    context.Context
	cancel context.CancelFunc

	peersMu sync.RWMutex
	peers   map[string]string

	exchStop chan struct{}
	exchDone chan struct{}

	httpSrv  *http.Server
	listener net.Listener
}

// NewShard builds and starts a shard (serve.NewDurable under the
// hood — a set StateDir recovers and persists session state). The
// returned RecoverStats describe what a restart restored.
func NewShard(cfg ShardConfig) (*Shard, *serve.RecoverStats, error) {
	if cfg.Name == "" {
		return nil, nil, errors.New("fleet: shard name required")
	}
	found := false
	for _, n := range cfg.ShardNames {
		if n == cfg.Name {
			found = true
		}
	}
	if !found {
		return nil, nil, fmt.Errorf("fleet: shard %q not in fleet membership %v", cfg.Name, cfg.ShardNames)
	}
	if err := cfg.Directory.Validate(); err != nil {
		return nil, nil, err
	}
	if cfg.Serve.Tool == "" {
		cfg.Serve.Tool = "blufleet-shard"
	}
	srv, stats, err := serve.NewDurable(cfg.Serve)
	if err != nil {
		return nil, nil, err
	}
	sh := &Shard{
		name:      cfg.Name,
		directory: cfg.Directory,
		srv:       srv,
		mux:       http.NewServeMux(),
		client:    &http.Client{Timeout: 10 * time.Second},
		peers:     map[string]string{},
	}
	sh.ring.Store(NewRing(0, cfg.ShardNames...))
	sh.ctx, sh.cancel = context.WithCancel(context.Background())
	for n, u := range cfg.Peers {
		sh.peers[n] = u
	}
	sh.mux.Handle("/", srv.Handler())
	sh.mux.HandleFunc("/v1/fleet/exchange", sh.handleExchange)
	sh.mux.HandleFunc("/v1/fleet/blueprints", sh.handleBlueprints)
	sh.mux.HandleFunc("/v1/fleet/handoff", sh.handleHandoff)
	if cfg.ExchangeInterval > 0 {
		sh.exchStop = make(chan struct{})
		sh.exchDone = make(chan struct{})
		go sh.exchangeLoop(cfg.ExchangeInterval)
	}
	return sh, stats, nil
}

// Name returns the shard's ring identity.
func (sh *Shard) Name() string { return sh.name }

// SetPeer updates a peer shard's base URL (restarts move ports).
func (sh *Shard) SetPeer(name, url string) {
	sh.peersMu.Lock()
	defer sh.peersMu.Unlock()
	sh.peers[name] = url
}

func (sh *Shard) peerURL(name string) (string, bool) {
	sh.peersMu.RLock()
	defer sh.peersMu.RUnlock()
	u, ok := sh.peers[name]
	return u, ok
}

// OwnedCells lists the cells the ring assigns to this shard, in
// directory order.
func (sh *Shard) OwnedCells() []string {
	ring := sh.ring.Load()
	var out []string
	for i := range sh.directory.Cells {
		if ring.Owner(sh.directory.Cells[i].ID) == sh.name {
			out = append(out, sh.directory.Cells[i].ID)
		}
	}
	return out
}

// Owns reports whether this shard owns the cell.
func (sh *Shard) Owns(cellID string) bool { return sh.ring.Load().Owner(cellID) == sh.name }

// SetMembership atomically replaces the shard's view of the fleet: the
// ring is rebuilt over names and the peer table replaced with peers
// (the shard's own entry ignored). The router broadcasts this after a
// reshard commits, so exchange rounds target the new owners.
func (sh *Shard) SetMembership(names []string, peers map[string]string) {
	sh.ring.Store(NewRing(0, names...))
	sh.peersMu.Lock()
	defer sh.peersMu.Unlock()
	sh.peers = map[string]string{}
	for n, u := range peers {
		if n != sh.name {
			sh.peers[n] = u
		}
	}
}

// Listen binds addr (":0" picks a free port) and serves Handler in the
// background, returning the bound address.
func (sh *Shard) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	sh.listener = ln
	sh.httpSrv = &http.Server{Handler: sh.mux}
	go func() { _ = sh.httpSrv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Drain gracefully stops the shard: the exchange loop first, then the
// HTTP listener (in-flight requests finish), then the serving core
// (workers stop, final snapshot, manifest).
func (sh *Shard) Drain(ctx context.Context) error {
	sh.stopExchange()
	var err error
	if sh.httpSrv != nil {
		err = sh.httpSrv.Shutdown(ctx)
	}
	if derr := sh.srv.Drain(ctx); derr != nil && err == nil {
		err = derr
	}
	return err
}

func (sh *Shard) stopExchange() {
	// Cancel first: an exchange round blocked on a wedged peer unblocks
	// immediately instead of holding shutdown for the client timeout.
	sh.cancel()
	if sh.exchStop == nil {
		return
	}
	select {
	case <-sh.exchStop:
	default:
		close(sh.exchStop)
	}
	<-sh.exchDone
}

func (sh *Shard) exchangeLoop(interval time.Duration) {
	defer close(sh.exchDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-sh.exchStop:
			return
		case <-t.C:
			if _, err := sh.ExchangeOnce(sh.ctx); err != nil {
				obsExchangeErrors.Inc()
			}
		}
	}
}

// ExchangeStats accounts one outbound exchange round.
type ExchangeStats struct {
	// Published counts border reports shipped (or applied locally).
	Published int
	// Folded/Deduped/Skipped aggregate the receivers' responses.
	Folded, Deduped, Skipped int
}

// ExchangeOnce runs one outbound exchange round: for every owned cell
// with an inferred blueprint, build the border reports owed to every
// overlapping cell and deliver them to that cell's owning shard —
// in-process when this shard owns the target too, over HTTP otherwise.
// A peer delivery failure aborts the round with an error (the next
// round retries; reports are recomputed from live state each time).
func (sh *Shard) ExchangeOnce(ctx context.Context) (ExchangeStats, error) {
	obsExchangeRounds.Inc()
	var stats ExchangeStats
	ring := sh.ring.Load()
	// Group outgoing reports by owning shard so each peer gets one POST.
	outgoing := map[string][]CellReports{}
	for i := range sh.directory.Cells {
		from := &sh.directory.Cells[i]
		if ring.Owner(from.ID) != sh.name {
			continue
		}
		topo, _, _, ok := sh.srv.SessionBlueprint(SessionName(from.ID))
		if !ok || topo == nil {
			continue
		}
		for j := range sh.directory.Cells {
			if i == j {
				continue
			}
			to := &sh.directory.Cells[j]
			reports := borderReports(&sh.directory, from, to, topo)
			if len(reports) == 0 {
				continue
			}
			owner := ring.Owner(to.ID)
			outgoing[owner] = append(outgoing[owner], CellReports{Cell: to.ID, From: from.ID, HTs: reports})
			stats.Published += len(reports)
			obsExchangePublished.Add(int64(len(reports)))
		}
	}
	for owner, groups := range outgoing {
		req := &ExchangeRequest{From: sh.name, Reports: groups}
		var resp ExchangeResponse
		if owner == sh.name {
			resp = sh.applyExchange(req)
		} else {
			url, ok := sh.peerURL(owner)
			if !ok {
				return stats, fmt.Errorf("fleet: no peer URL for shard %q", owner)
			}
			if err := shardCall(ctx, sh.client, url, "/v1/fleet/exchange", req, &resp); err != nil {
				return stats, err
			}
		}
		stats.Folded += resp.Folded
		stats.Deduped += resp.Deduped
		stats.Skipped += resp.Skipped
	}
	return stats, nil
}

// shardCall is the fleet's one client for a shard's JSON endpoints: it
// POSTs in as JSON (or GETs when in is nil) to baseURL+path and decodes
// a 200 answer into out. Its errors name the endpoint and the shard
// URL, and for any other status add the status and a bounded prefix of
// the body.
func shardCall(ctx context.Context, client *http.Client, baseURL, path string, in, out any) error {
	method, body := http.MethodGet, io.Reader(nil)
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		method, body = http.MethodPost, bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, baseURL+path, body)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	res, err := client.Do(req)
	if err != nil {
		return fmt.Errorf("fleet: %s on %s: %w", path, baseURL, err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(res.Body, 512))
		return fmt.Errorf("fleet: %s on %s: status %d: %s", path, baseURL, res.StatusCode, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(res.Body).Decode(out); err != nil {
		return fmt.Errorf("fleet: %s on %s: %w", path, baseURL, err)
	}
	return nil
}

// handleExchange is POST /v1/fleet/exchange: fold a peer's border
// reports into the owned cells' warm-start seeds.
func (sh *Shard) handleExchange(w http.ResponseWriter, r *http.Request) {
	var req ExchangeRequest
	if !decodeAdmin(w, r, 1<<20, &req) {
		return
	}
	serve.WriteJSON(w, http.StatusOK, sh.applyExchange(&req))
}

// decodeAdmin gates a fleet admin POST: the method, a body of at most
// limit bytes, and serve's strict JSON decode into v. On failure it has
// answered the request and returns false.
func decodeAdmin(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	if r.Method != http.MethodPost {
		writeRouterError(w, http.StatusMethodNotAllowed, "POST required")
		return false
	}
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	if err := serve.DecodeJSON(r, v); err != nil {
		writeRouterError(w, http.StatusBadRequest, err.Error())
		return false
	}
	return true
}

// CellBlueprintWire is one owned cell's current blueprint, clients in
// global UE ids, with the session's freshness coordinates (digest +
// epoch) so the coordinator can report staleness.
type CellBlueprintWire struct {
	Cell   string         `json:"cell"`
	N      int            `json:"n"`
	Epoch  int            `json:"epoch"`
	Digest string         `json:"digest"`
	HTs    []BorderHTWire `json:"hts"`
}

// BlueprintsResponse is the GET /v1/fleet/blueprints body.
type BlueprintsResponse struct {
	Shard string              `json:"shard"`
	Cells []CellBlueprintWire `json:"cells"`
}

// handleBlueprints is GET /v1/fleet/blueprints: every owned cell with
// a live session, its blueprint translated to global ids.
func (sh *Shard) handleBlueprints(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeRouterError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	resp := BlueprintsResponse{Shard: sh.name, Cells: []CellBlueprintWire{}}
	ring := sh.ring.Load()
	for i := range sh.directory.Cells {
		cell := &sh.directory.Cells[i]
		if ring.Owner(cell.ID) != sh.name {
			continue
		}
		topo, digest, epoch, ok := sh.srv.SessionBlueprint(SessionName(cell.ID))
		if !ok {
			continue
		}
		wire := CellBlueprintWire{
			Cell:   cell.ID,
			N:      len(cell.Members),
			Epoch:  epoch,
			Digest: fmt.Sprintf("%016x", digest),
			HTs:    []BorderHTWire{},
		}
		if topo != nil {
			for _, ht := range topo.HTs {
				wire.HTs = append(wire.HTs, BorderHTWire{Q: ht.Q, Clients: cell.GlobalIDs(ht.Clients)})
			}
		}
		resp.Cells = append(resp.Cells, wire)
	}
	serve.WriteJSON(w, http.StatusOK, resp)
}
