// Dynamic resharding: the router's admin plane for growing and
// shrinking the fleet while it serves. POST /v1/fleet/reshard adds or
// removes one shard; the router computes the moved cell set from the
// ring delta (minimal motion: ~1/K of the cells), fences those cells
// (in-flight requests finish, new ones get 307/Retry-After), moves
// their sessions loser→gainer over the handoff protocol, and only when
// every move has acked swaps the ring atomically — unmoved cells route
// identically before, during, and after, so their cached answers stay
// byte-identical throughout.
//
// Failure discipline: any export/import error aborts the reshard with
// the old ring intact and the fences lifted — the losing shards still
// hold every session, so a failed reshard is a clean no-op to retry.
// Membership broadcast and loser-side release run after the commit and
// are best-effort: a shard that misses the broadcast keeps serving
// (the router routes around it) and catches up on the next reshard.
package fleet

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"blu/internal/obs"
	"blu/internal/serve"
)

var (
	obsReshards      = obs.GetCounter("fleet_reshard_total")
	obsReshardMoved  = obs.GetCounter("fleet_reshard_moved_cells")
	obsReshardErrors = obs.GetCounter("fleet_reshard_errors_total")
)

// reshardQuiesce bounds how long a reshard waits for in-flight
// requests on moved cells to drain before exporting anyway. A request
// still running past it lands on the loser after the export cut and is
// lost to the move — the same bounded-loss window a WAL group commit
// accepts.
const reshardQuiesce = 5 * time.Second

// ReshardRequest is the POST /v1/fleet/reshard body.
type ReshardRequest struct {
	// Action is "add" or "remove".
	Action string `json:"action"`
	// Name is the shard's ring identity.
	Name string `json:"name"`
	// URL is the shard's base URL (add only; the shard must already be
	// listening there, started with the post-reshard membership).
	URL string `json:"url,omitempty"`
}

// ReshardResponse reports what moved.
type ReshardResponse struct {
	Action string   `json:"action"`
	Shard  string   `json:"shard"`
	Moved  []string `json:"moved"`
	Shards []string `json:"shards"`
}

// Reshard performs one membership change end to end. Reshards
// serialize; routing continues concurrently except on the moved cells.
func (rt *Router) Reshard(ctx context.Context, req ReshardRequest) (*ReshardResponse, error) {
	rt.reshardMu.Lock()
	defer rt.reshardMu.Unlock()

	rt.mu.RLock()
	oldRing := rt.ring
	oldShards := make(map[string]string, len(rt.shards))
	for n, u := range rt.shards {
		oldShards[n] = u
	}
	rt.mu.RUnlock()

	var newRing *Ring
	switch req.Action {
	case "add":
		if req.Name == "" || req.URL == "" {
			return nil, fmt.Errorf("fleet: reshard add needs name and url")
		}
		if _, ok := oldShards[req.Name]; ok {
			return nil, fmt.Errorf("fleet: shard %q already in the fleet", req.Name)
		}
		newRing = oldRing.Add(req.Name)
	case "remove":
		if _, ok := oldShards[req.Name]; !ok {
			return nil, fmt.Errorf("fleet: shard %q not in the fleet", req.Name)
		}
		if len(oldShards) == 1 {
			return nil, fmt.Errorf("fleet: cannot remove the last shard")
		}
		newRing = oldRing.Remove(req.Name)
	default:
		return nil, fmt.Errorf("fleet: reshard action %q, want add or remove", req.Action)
	}

	newShards := make(map[string]string, len(oldShards)+1)
	for n, u := range oldShards {
		newShards[n] = u
	}
	if req.Action == "add" {
		newShards[req.Name] = strings.TrimSuffix(req.URL, "/")
	} else {
		delete(newShards, req.Name)
	}
	shardURL := func(name string) (string, error) {
		if u, ok := newShards[name]; ok {
			return u, nil
		}
		if u, ok := oldShards[name]; ok {
			return u, nil
		}
		return "", fmt.Errorf("fleet: no URL for shard %q", name)
	}
	handoff := func(url string, req *HandoffRequest) (*HandoffResponse, error) {
		var resp HandoffResponse
		if err := shardCall(ctx, rt.client, url, "/v1/fleet/handoff", req, &resp); err != nil {
			return nil, fmt.Errorf("handoff %s: %w", req.Mode, err)
		}
		return &resp, nil
	}

	// The moved set is exactly where old and new rings disagree.
	type move struct{ loser, gainer string }
	groups := map[move][]string{}
	var moved []string
	for _, id := range rt.cfg.Directory.CellIDs() {
		from, to := oldRing.Owner(id), newRing.Owner(id)
		if from == to {
			continue
		}
		moved = append(moved, id)
		groups[move{from, to}] = append(groups[move{from, to}], id)
	}

	// Fence the moved cells: new requests 307 until the swap, and the
	// export waits for requests already inside a shard to finish.
	rt.mu.Lock()
	for _, c := range moved {
		rt.moving[c] = true
	}
	rt.mu.Unlock()
	abort := func(err error) (*ReshardResponse, error) {
		rt.mu.Lock()
		for _, c := range moved {
			delete(rt.moving, c)
		}
		rt.mu.Unlock()
		obsReshardErrors.Inc()
		return nil, err
	}
	rt.waitQuiesce(ctx, moved)

	// Move state pairwise: export from the loser, import into the
	// gainer. Either side failing aborts with the old ring intact.
	for mv, cells := range groups {
		loserURL, err := shardURL(mv.loser)
		if err != nil {
			return abort(err)
		}
		gainerURL, err := shardURL(mv.gainer)
		if err != nil {
			return abort(err)
		}
		exp, err := handoff(loserURL, &HandoffRequest{Mode: "export", Cells: cells})
		if err != nil {
			return abort(err)
		}
		if len(exp.Sessions) == 0 {
			continue // nothing live on those cells yet
		}
		if _, err := handoff(gainerURL, &HandoffRequest{Mode: "import", Sessions: exp.Sessions}); err != nil {
			return abort(err)
		}
	}

	// Commit: the ring, the routing table, and the fences change in one
	// critical section — a request admitted after this sees only the
	// new assignment.
	rt.mu.Lock()
	rt.ring = newRing
	rt.shards = newShards
	for _, c := range moved {
		delete(rt.moving, c)
	}
	rt.mu.Unlock()

	// Post-commit, best-effort: tell every shard (including a removed
	// one) the new membership, then let losers drop what they handed
	// off. A miss here never un-commits the reshard.
	names := newRing.Nodes()
	notify := make(map[string]string, len(newShards)+1)
	for n, u := range newShards {
		notify[n] = u
	}
	if req.Action == "remove" {
		notify[req.Name] = oldShards[req.Name]
	}
	for _, u := range notify {
		if _, err := handoff(u, &HandoffRequest{Mode: "membership", Shards: names, Peers: newShards}); err != nil {
			obsReshardErrors.Inc()
		}
	}
	for mv, cells := range groups {
		u, err := shardURL(mv.loser)
		if err != nil {
			continue
		}
		if _, err := handoff(u, &HandoffRequest{Mode: "release", Cells: cells}); err != nil {
			obsReshardErrors.Inc()
		}
	}

	sort.Strings(moved)
	obsReshards.Inc()
	obsReshardMoved.Add(int64(len(moved)))
	return &ReshardResponse{Action: req.Action, Shard: req.Name, Moved: moved, Shards: names}, nil
}

// waitQuiesce polls until no moved cell has an in-flight relay, the
// bound expires, or ctx is done.
func (rt *Router) waitQuiesce(ctx context.Context, cells []string) {
	deadline := time.Now().Add(reshardQuiesce)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		rt.mu.RLock()
		busy := false
		for _, c := range cells {
			if rt.inflight[c] > 0 {
				busy = true
				break
			}
		}
		rt.mu.RUnlock()
		if !busy {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// handleReshard is POST /v1/fleet/reshard.
func (rt *Router) handleReshard(w http.ResponseWriter, r *http.Request) {
	var req ReshardRequest
	if !decodeAdmin(w, r, 1<<16, &req) {
		return
	}
	resp, err := rt.Reshard(r.Context(), req)
	if err != nil {
		writeRouterError(w, http.StatusConflict, err.Error())
		return
	}
	serve.WriteJSON(w, http.StatusOK, resp)
}
