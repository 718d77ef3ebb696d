package serve

import (
	"container/list"
	"encoding/binary"
	"math"
	"sync"

	"blu/internal/blueprint"
	"blu/internal/joint"
	"blu/internal/obs"
	"blu/internal/sched"
)

var (
	obsTablesHit   = obs.GetCounter("serve_joint_tables_hit_total")
	obsTablesMiss  = obs.GetCounter("serve_joint_tables_miss_total")
	obsTablesEvict = obs.GetCounter("serve_joint_tables_evict_total")
	obsTablesBytes = obs.GetGauge("serve_joint_tables_bytes")
)

// jointTablesMaxBytes bounds the accounted size of the joint tables the
// server keeps between requests: 256 MiB. One blueprint's tables run
// from under 3 KB (a /v1/joint probe) to the 2.4 MB of slots their entry
// bounds allow plus the cached group distributions; on the benchmark's
// 8–24-client blueprints at 50 RBs and M = 4 they measure 0.5–3.4 MB,
// 2.2 MB on average once every group has been seen. The budget therefore
// holds the current blueprints of about a hundred busy cells. Tables
// checked out by running jobs are not counted: the process can exceed
// the budget by at most Workers entries.
const jointTablesMaxBytes = 256 << 20

// tablesCache keeps each recently scheduled blueprint's joint tables
// (sched.JointTables: calculator memo + group distributions) across
// requests, so only the first subframe of a blueprint computes them.
// Cached values are pure functions of the topology, so a response is
// byte-identical whether it was served from empty, partly filled, or
// full tables.
//
// Tables are written on every use, so an entry is checked out: acquire
// removes it from the cache and release puts it back, and between the
// two the caller owns it exclusively. A concurrent request for the same
// blueprint finds nothing and builds its own; whichever is released
// second is dropped. Both calls belong inside the worker job, never in
// the HTTP handler: submit returns when the request context dies while
// the job may still be running on the tables.
type tablesCache struct {
	mu    sync.Mutex
	max   int
	bytes int
	ll    *list.List // front = most recently released
	items map[string]*list.Element
}

type tablesEntry struct {
	key    string
	tables *sched.JointTables
	bytes  int
}

func newTablesCache(maxBytes int) *tablesCache {
	return &tablesCache{max: maxBytes, ll: list.New(), items: make(map[string]*list.Element)}
}

// topologyKey is the exact identity of a topology: N, then every hidden
// terminal's Q bit pattern and client mask in list order. Order is part
// of the identity because ClearProb multiplies in list order, so two
// orderings of the same terminals can differ in the last bit. The map
// compares whole keys, so distinct topologies never share an entry.
func topologyKey(t *blueprint.Topology) string {
	b := make([]byte, 0, 1+16*len(t.HTs))
	b = append(b, byte(t.N))
	for _, ht := range t.HTs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(ht.Q))
		b = binary.LittleEndian.AppendUint64(b, uint64(ht.Clients))
	}
	return string(b)
}

// acquire checks out the tables for topo, building empty ones on a
// miss. The caller must release them under the returned key.
func (c *tablesCache) acquire(topo *blueprint.Topology) (string, *sched.JointTables) {
	key := topologyKey(topo)
	var e *tablesEntry
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		e = c.drop(el)
		obsTablesBytes.Set(float64(c.bytes))
	}
	c.mu.Unlock()
	if e != nil {
		obsTablesHit.Inc()
		return key, e.tables
	}
	obsTablesMiss.Inc()
	return key, sched.NewJointTables(joint.NewCalculator(topo))
}

// release returns checked-out tables, re-measures them, and evicts
// least-recently-released entries until the cache is within its budget
// again (possibly the returned entry itself).
func (c *tablesCache) release(key string, t *sched.JointTables) {
	// The key and the topology the calculator holds are the same size.
	e := &tablesEntry{key: key, tables: t, bytes: 2*len(key) + t.Bytes()}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.items[key]; ok {
		return
	}
	c.items[key] = c.ll.PushFront(e)
	c.bytes += e.bytes
	for c.bytes > c.max {
		c.drop(c.ll.Back())
		obsTablesEvict.Inc()
	}
	obsTablesBytes.Set(float64(c.bytes))
}

// drop unlinks el and returns its entry. The caller holds c.mu.
func (c *tablesCache) drop(el *list.Element) *tablesEntry {
	e := c.ll.Remove(el).(*tablesEntry)
	delete(c.items, e.key)
	c.bytes -= e.bytes
	return e
}
