// Multi-cell ground truth: several eNBs sharing one floor, per-cell
// client sets, and border UEs audible in two or more cells — the dense
// unlicensed deployment regime the sharded controller fleet
// (internal/fleet, DESIGN.md §16) serves. Each cell gets its own
// Scenario (local UE indexing, the same radio model) plus the local →
// global UE id map the blueprint-exchange layer needs to recognize a
// hidden terminal inferred by a neighboring cell.
//
// Geometry: eNBs sit on a grid with cellSpacing pitch. With phy's radio
// constants a station is audible within ≈31.6 m (15 dBm Tx, −70 dBm
// energy detection, 40 + 30·log10(d) indoor loss), so at the 80 m pitch
// a station near a cell boundary is hidden from both adjacent eNBs
// while still silencing the border UEs placed there: the same physical
// hidden terminal appears in both cells' ground truths, which is
// exactly the duplication the fleet's exchange layer is meant to
// collapse. Every cell holds at most uesPerCell + 4·borderPerEdge
// clients, well inside blueprint.MaxClients.
package topology

import (
	"fmt"
	"math"
	"sort"

	"blu/internal/geom"
	"blu/internal/rng"
)

// The multi-cell layout, sized so border UEs and shared hidden
// terminals exist deterministically.
const (
	// uesPerCell interior UEs are placed around each eNB.
	uesPerCell = 6
	// borderPerEdge extra UEs are pinned near each adjacent cell
	// boundary midpoint. These are the border UEs: they are audible in
	// both cells sharing the edge.
	borderPerEdge = 1
	// stationsPerCell WiFi stations are scattered over each cell's tile.
	stationsPerCell = 4
	// borderStationsPerEdge stations are pinned near each adjacent cell
	// boundary — at cellSpacing these are hidden from both eNBs and block
	// the border UEs, forming the cross-cell hidden terminals the
	// exchange layer deduplicates.
	borderStationsPerEdge = 1
	// cellSpacing is the eNB grid pitch in meters, wide enough that a
	// boundary station is hidden from both eNBs.
	cellSpacing = 80.0
	// audibleRange is the cell-attachment radius: a UE belongs to the
	// client set of every cell whose eNB is within this range, and
	// always to its nearest cell.
	audibleRange = 0.6 * cellSpacing
)

// CellView is one cell of a MultiScenario: its identity, its local
// Scenario (UEs indexed 0..len(Members)-1), and the local → global UE
// id map. Members is sorted by global id, so local indexing is
// canonical: two processes building the same MultiScenario agree on
// every local index.
type CellView struct {
	// ID is the cell identity ("cell-0", "cell-1", ...) — the routing
	// key the fleet's consistent-hash router hashes.
	ID string
	// ENB is the cell's base-station position.
	ENB geom.Point
	// Members maps local UE index → global UE id: every UE audible in
	// this cell (its own plus border UEs from adjacent cells).
	Members []int
	// Scenario is the per-cell deployment over the local UE indexing.
	// Stations are shared floor-wide; HiddenTerminalEdges/GroundTruth
	// evaluate hidden-ness against this cell's eNB.
	Scenario *Scenario
}

// MultiScenario is a multi-cell deployment over one shared floor.
type MultiScenario struct {
	Floor    geom.Floor
	ENBs     []geom.Point
	UEs      []geom.Point // global UE positions
	Stations []geom.Point // shared floor-wide stations
	Cells    []CellView

	// Owner[g] is the owning (nearest) cell of global UE g.
	Owner []int
	// AudibleIn[g] lists every cell whose client set contains UE g,
	// ascending. len >= 2 marks a border UE.
	AudibleIn [][]int
}

// CellID renders the canonical id of cell i.
func CellID(i int) string { return fmt.Sprintf("cell-%d", i) }

// NewMultiScenario builds a deployment of cells eNBs on a
// ⌈√cells⌉-column grid over a shared floor: interior UEs uniform around
// each eNB, border UEs and border stations pinned (with jitter) to
// adjacent-cell boundary midpoints, and stations scattered per tile.
// All randomness comes from r; the per-cell scenarios use pure path
// loss (no shadowing) so the same physical link is scored identically
// from both sides of a border.
func NewMultiScenario(cells int, r *rng.Source) (*MultiScenario, error) {
	if cells < 1 {
		return nil, fmt.Errorf("topology: %d cells out of range", cells)
	}

	cols := int(math.Ceil(math.Sqrt(float64(cells))))
	rows := (cells + cols - 1) / cols
	const s = cellSpacing
	ms := &MultiScenario{
		Floor: geom.Floor{Width: float64(cols) * s, Height: float64(rows) * s},
	}
	for i := 0; i < cells; i++ {
		ms.ENBs = append(ms.ENBs, geom.Point{
			X: (float64(i%cols) + 0.5) * s,
			Y: (float64(i/cols) + 0.5) * s,
		})
	}

	// Interior UEs: uniform in a 0.7·spacing square centered on the eNB,
	// comfortably inside the tile so they attach to exactly one cell.
	ru := r.Split("multicell-ues")
	for c := 0; c < cells; c++ {
		for k := 0; k < uesPerCell; k++ {
			ms.UEs = append(ms.UEs, ms.ENBs[c].Add(
				(ru.Float64()-0.5)*0.7*s,
				(ru.Float64()-0.5)*0.7*s,
			))
		}
	}
	// Border UEs and stations: pinned near every adjacent-pair boundary
	// midpoint, jittered so repeated placements don't coincide.
	edges := gridEdges(cells, cols)
	rb := r.Split("multicell-borders")
	for _, e := range edges {
		mid := midpoint(ms.ENBs[e[0]], ms.ENBs[e[1]])
		for k := 0; k < borderPerEdge; k++ {
			ms.UEs = append(ms.UEs, clampToFloor(mid.Add(
				(rb.Float64()-0.5)*0.08*s,
				(rb.Float64()-0.5)*0.08*s,
			), ms.Floor))
		}
	}
	rs := r.Split("multicell-stations")
	for c := 0; c < cells; c++ {
		tile := geom.Point{X: float64(c%cols) * s, Y: float64(c/cols) * s}
		for k := 0; k < stationsPerCell; k++ {
			ms.Stations = append(ms.Stations, tile.Add(rs.Float64()*s, rs.Float64()*s))
		}
	}
	for _, e := range edges {
		mid := midpoint(ms.ENBs[e[0]], ms.ENBs[e[1]])
		for k := 0; k < borderStationsPerEdge; k++ {
			ms.Stations = append(ms.Stations, clampToFloor(mid.Add(
				(rs.Float64()-0.5)*0.08*s,
				(rs.Float64()-0.5)*0.08*s,
			), ms.Floor))
		}
	}

	// Attachment: every UE joins its nearest cell plus every cell within
	// audibleRange. Border UEs (two or more cells) are the exchange
	// layer's subject.
	ms.Owner = make([]int, len(ms.UEs))
	ms.AudibleIn = make([][]int, len(ms.UEs))
	members := make([][]int, cells)
	for g, p := range ms.UEs {
		best, bestD := 0, math.Inf(1)
		for c := range ms.ENBs {
			if d := p.Dist(ms.ENBs[c]); d < bestD {
				best, bestD = c, d
			}
		}
		ms.Owner[g] = best
		for c := range ms.ENBs {
			if c == best || p.Dist(ms.ENBs[c]) <= audibleRange {
				ms.AudibleIn[g] = append(ms.AudibleIn[g], c)
				members[c] = append(members[c], g)
			}
		}
	}

	rcell := r.Split("multicell-scenarios")
	for c := 0; c < cells; c++ {
		sort.Ints(members[c]) // canonical local indexing
		ues := make([]geom.Point, len(members[c]))
		for i, g := range members[c] {
			ues[i] = ms.UEs[g]
		}
		ms.Cells = append(ms.Cells, CellView{
			ID:       CellID(c),
			ENB:      ms.ENBs[c],
			Members:  members[c],
			Scenario: Manual(ms.ENBs[c], ues, ms.Stations, rcell.SplitIndex("cell", c)),
		})
	}
	return ms, nil
}

// gridEdges enumerates adjacent cell pairs on the placement grid.
func gridEdges(cells, cols int) [][2]int {
	var edges [][2]int
	for c := 0; c < cells; c++ {
		if (c+1)%cols != 0 && c+1 < cells {
			edges = append(edges, [2]int{c, c + 1})
		}
		if c+cols < cells {
			edges = append(edges, [2]int{c, c + cols})
		}
	}
	return edges
}

func midpoint(a, b geom.Point) geom.Point {
	return geom.Point{X: (a.X + b.X) / 2, Y: (a.Y + b.Y) / 2}
}

func clampToFloor(p geom.Point, f geom.Floor) geom.Point {
	if p.X < 0 {
		p.X = 0
	} else if p.X > f.Width {
		p.X = f.Width
	}
	if p.Y < 0 {
		p.Y = 0
	} else if p.Y > f.Height {
		p.Y = f.Height
	}
	return p
}
