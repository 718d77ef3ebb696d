// State handoff: the shard-side protocol a reshard moves sessions
// with. One endpoint, POST /v1/fleet/handoff, carries four modes the
// router drives in sequence:
//
//	export     — the losing shard encodes every live session belonging
//	             to the named cells (the same self-validating record a
//	             snapshot holds: digest, warm-start blueprint, window
//	             ring, minted cache keys with response bytes)
//	import     — the gaining shard installs records through the same
//	             validate + digest-gate path as WAL recovery; an
//	             existing same-id session is replaced, so retries are
//	             idempotent
//	release    — the losing shard drops the moved sessions and their
//	             minted cache keys, once the gainer has acknowledged
//	membership — the shard rebuilds its ring and peer table over the
//	             new fleet, after the router commits the swap
//
// Durable shards checkpoint (SnapshotNow) after import and release, so
// a crash on either side of a committed reshard recovers the moved —
// not the pre-move — assignment.
package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"blu/internal/obs"
)

var (
	obsHandoffSessions = obs.GetCounter("fleet_handoff_sessions_total")
	obsHandoffErrors   = obs.GetCounter("fleet_handoff_errors_total")
)

// SessionWire is one session record in transit (Record is base64 in
// JSON — the exact bytes a snapshot would hold).
type SessionWire struct {
	ID     string `json:"id"`
	Record []byte `json:"record"`
}

// HandoffRequest is the POST /v1/fleet/handoff body.
type HandoffRequest struct {
	// Mode is "export", "import", "release", or "membership".
	Mode string `json:"mode"`
	// Cells names the moved cells (export, release).
	Cells []string `json:"cells,omitempty"`
	// Sessions carries the exported records (import).
	Sessions []SessionWire `json:"sessions,omitempty"`
	// Shards + Peers are the new fleet view (membership).
	Shards []string          `json:"shards,omitempty"`
	Peers  map[string]string `json:"peers,omitempty"`
}

// HandoffResponse is the endpoint's reply.
type HandoffResponse struct {
	Sessions []SessionWire `json:"sessions,omitempty"` // export
	Imported int           `json:"imported"`           // import
	Dropped  int           `json:"dropped"`            // release
}

// cellMatcher builds a session-id predicate for a moved cell set,
// using the directory's session-id convention.
func (sh *Shard) cellMatcher(cells []string) func(string) bool {
	moved := make(map[string]bool, len(cells))
	for _, c := range cells {
		moved[c] = true
	}
	return func(sessionID string) bool {
		cell, ok := sh.directory.SessionCell(sessionID)
		return ok && moved[cell]
	}
}

// handleHandoff is POST /v1/fleet/handoff.
func (sh *Shard) handleHandoff(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeRouterError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	// Handoff bodies carry whole session records including cached
	// response bytes; allow far more than the exchange cap.
	r.Body = http.MaxBytesReader(w, r.Body, 64<<20)
	var req HandoffRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		obsHandoffErrors.Inc()
		writeRouterError(w, http.StatusBadRequest, "bad JSON")
		return
	}

	var resp HandoffResponse
	switch req.Mode {
	case "export":
		for _, ex := range sh.srv.ExportSessionRecords(sh.cellMatcher(req.Cells)) {
			resp.Sessions = append(resp.Sessions, SessionWire{ID: ex.ID, Record: ex.Record})
			obsHandoffSessions.Inc()
		}
	case "import":
		for _, sw := range req.Sessions {
			if err := sh.srv.ImportSessionRecord(sw.Record); err != nil {
				obsHandoffErrors.Inc()
				writeRouterError(w, http.StatusUnprocessableEntity, fmt.Sprintf("import %s: %v", sw.ID, err))
				return
			}
			resp.Imported++
			obsHandoffSessions.Inc()
		}
		sh.checkpoint()
	case "release":
		resp.Dropped = sh.srv.DropSessionsMatching(sh.cellMatcher(req.Cells))
		sh.checkpoint()
	case "membership":
		sh.SetMembership(req.Shards, req.Peers)
	default:
		obsHandoffErrors.Inc()
		writeRouterError(w, http.StatusBadRequest, "unknown mode")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// checkpoint makes a session mutation durable on a stateful shard; a
// memory-only shard has nothing to do. Snapshot errors surface on the
// store's next append, same as the periodic snapshot loop.
func (sh *Shard) checkpoint() {
	if sh.srv.Durable() {
		_ = sh.srv.SnapshotNow()
	}
}

// postHandoff drives one handoff call against a shard base URL — the
// router's client side of the protocol.
func postHandoff(ctx context.Context, client *http.Client, baseURL string, req *HandoffRequest) (*HandoffResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/v1/fleet/handoff", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hres, err := client.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer hres.Body.Close()
	if hres.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(hres.Body, 512))
		return nil, fmt.Errorf("fleet: handoff %s to %s: status %d: %s", req.Mode, baseURL, hres.StatusCode, msg)
	}
	var resp HandoffResponse
	if err := json.NewDecoder(hres.Body).Decode(&resp); err != nil {
		return nil, err
	}
	return &resp, nil
}
