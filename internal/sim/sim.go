// Package sim is the subframe-level uplink cell simulator that stands
// in for the paper's WARP SDR testbed: it combines the WiFi
// hidden-terminal activity processes, the LTE grant/CCA/decode
// machinery, and a pluggable scheduler, and accounts throughput and
// RB-utilization the way the paper's figures do.
//
// One simulated uplink proceeds, per subframe, as:
//
//  1. The scheduler allocates the RB units (possibly over-scheduling).
//  2. Each granted UE runs its CCA against the hidden-terminal activity
//     overlapping its sensing window; blocked UEs stay silent.
//  3. The eNB receive pipeline classifies each grant (success /
//     blocked / collision / fading) and delivers payload bits.
//  4. The scheduler observes the results and updates its PF averages.
package sim

import (
	"fmt"
	"math"

	"blu/internal/blueprint"
	"blu/internal/faults"
	"blu/internal/geom"
	"blu/internal/joint"
	"blu/internal/lte"
	"blu/internal/phy"
	"blu/internal/rng"
	"blu/internal/sched"
	"blu/internal/topology"
	"blu/internal/wifi"
)

// Config parameterizes one simulated cell.
type Config struct {
	// Scenario is the physical deployment (required).
	Scenario *topology.Scenario
	// Stations configures the WiFi MAC/traffic of each scenario
	// station; nil entries (or a short slice) default to saturated
	// 24 Mbps senders.
	Stations []wifi.Station
	// M is the eNB antenna count (default 1 = SISO).
	M int
	// K caps distinct UEs per subframe (default lte.DefaultK).
	K int
	// Subframes is the simulated uplink length (default 2000).
	Subframes int
	// BurstSubframes is how many subframes one CCA covers (the paper's
	// testbed uses bursts of 3; default 1).
	BurstSubframes int
	// SharedMedium makes mutually-audible stations contend in DCF
	// domains, producing correlated hidden-terminal activity.
	SharedMedium bool
	// NOMA enables the non-orthogonal receive pipeline (successive
	// interference cancellation) at the eNB, the Section 5 extension:
	// over-scheduling collisions become partially decodable.
	NOMA bool
	// MobilityAt, if positive, changes the interference topology at
	// that subframe (clients/terminals move, §3.5 "Stationarity and
	// Mobility"): every hidden terminal's blocked-client set rotates by
	// one position. Use GroundTruthAt to score inference against the
	// topology in force at a given time.
	MobilityAt int
	// Faults, when non-nil, injects the scenario's fault timeline into
	// the cell: its churn/burst terminals add to the per-subframe
	// blocked sets (invisible to the ground-truth blueprint, like real
	// unmodeled interferers), and the controller reads the same injector
	// via Faults() for observation loss/corruption and inference
	// stalls. The injector seeds purely from the scenario, so (Config,
	// Scenario) fully determine the faulted timeline.
	Faults *faults.Scenario
	// Seed drives every random draw of the run.
	Seed uint64
}

// numRBGs is the number of schedulable RB groups per subframe: 10
// groups of 5 RBs on the 10 MHz carrier.
const numRBGs = 10

var (
	// bitsPerRBG is the data REs one RB group carries (bits = REs ×
	// efficiency).
	bitsPerRBG = float64(phy.DataREsPerRB() * (phy.NumRB / numRBGs))
	// fading is the per-UE per-subframe block fading: Rician K=6, mild
	// indoor fading.
	fading = phy.RicianFading{K: 6}
)

func (c Config) withDefaults() Config {
	if c.M <= 0 {
		c.M = 1
	}
	if c.K == 0 {
		c.K = lte.DefaultK
	}
	if c.Subframes <= 0 {
		c.Subframes = 2000
	}
	if c.BurstSubframes <= 0 {
		c.BurstSubframes = 1
	}
	return c
}

// Cell is one instantiated simulation: precomputed channel state, the
// hidden-terminal activity timelines, and per-subframe access masks.
type Cell struct {
	cfg      Config
	scenario *topology.Scenario // nil for trace-replay cells

	numUE int
	// snrDB[ue][rbg]: average (schedulable) SNR per UE per RB group,
	// including static frequency selectivity, excluding fading.
	snrDB [][]float64
	// fadeDB[ue][sf]: per-subframe fading in dB.
	fadeDB [][]float64
	// access[sf]: which UEs pass CCA in subframe sf.
	access []blueprint.ClientSet
	// dlInterfered[sf]: which UEs suffer hidden-terminal energy at any
	// point of subframe sf (the downlink-collision exposure, §3.7 —
	// the whole 1 ms reception is vulnerable, not just a CCA window).
	dlInterfered []blueprint.ClientSet
	// enbClear[sf]: whether the eNB's own LBT found the medium clear at
	// the burst covering sf.
	enbClear []bool

	// Per-station state (retained for trace export).
	acts    []*wifi.Activity
	edges   []blueprint.ClientSet
	hidden  []bool
	airtime []float64
	// edgesAfter holds the post-mobility edge sets (nil without
	// mobility).
	edgesAfter []blueprint.ClientSet

	truth      *blueprint.Topology
	truthAfter *blueprint.Topology

	// inj is the instantiated fault timeline (nil when no faults are
	// configured).
	inj *faults.Injector
}

// New builds the cell: it simulates the WiFi activity over the whole
// horizon and precomputes access masks and channel state.
func New(cfg Config) (*Cell, error) {
	cfg = cfg.withDefaults()
	if cfg.Scenario == nil {
		return nil, fmt.Errorf("sim: Scenario is required")
	}
	n := len(cfg.Scenario.UEs)
	if n == 0 || n > blueprint.MaxClients {
		return nil, fmt.Errorf("sim: %d UEs out of range", n)
	}
	c := &Cell{
		cfg:      cfg,
		scenario: cfg.Scenario,
		numUE:    n,
	}
	root := rng.New(cfg.Seed)
	c.buildChannel(root.Split("channel"))
	c.buildActivity(root.Split("wifi"))
	if err := c.attachFaults(cfg.Faults); err != nil {
		return nil, err
	}
	c.computeMasks()
	c.truth = c.scenario.GroundTruth(c.airtime)
	if c.edgesAfter != nil {
		c.truthAfter = traceGroundTruth(c.numUE, c.edgesAfter, c.hidden, c.airtime)
	}
	return c, nil
}

// buildChannel derives per-UE-per-RBG schedulable SNRs and per-subframe
// fading.
func (c *Cell) buildChannel(r *rng.Source) {
	cfg := c.cfg
	c.snrDB = make([][]float64, c.numUE)
	c.fadeDB = make([][]float64, c.numUE)
	freq := r.Split("freq")
	fade := r.Split("fade")
	for ue := 0; ue < c.numUE; ue++ {
		base := c.scenario.UplinkSNRdB(ue)
		c.snrDB[ue] = make([]float64, numRBGs)
		for b := 0; b < numRBGs; b++ {
			// Static frequency selectivity of ±3 dB across the band.
			c.snrDB[ue][b] = base + 3*math.Sin(float64(b)*2.1+float64(ue)) + freq.NormFloat64()*0.5
		}
		c.fadeDB[ue] = make([]float64, cfg.Subframes)
		for sf := 0; sf < cfg.Subframes; sf++ {
			g := fading.Gain(fade)
			if g < 1e-6 {
				g = 1e-6
			}
			c.fadeDB[ue][sf] = 10 * math.Log10(g)
		}
	}
}

// buildActivity simulates the stations and precomputes access masks.
func (c *Cell) buildActivity(r *rng.Source) {
	cfg := c.cfg
	horizon := int64(cfg.Subframes) * phy.SubframeDurationUS
	nst := len(c.scenario.Stations)
	acts := make([]*wifi.Activity, nst)

	stations := make([]wifi.Station, nst)
	for k := 0; k < nst; k++ {
		if k < len(cfg.Stations) {
			stations[k] = cfg.Stations[k]
		}
		stations[k].ID = k
		if stations[k].Rate <= 0 {
			stations[k].Rate = 24
		}
		if stations[k].Traffic == nil {
			// Moderate default airtime: a saturated sender with no
			// contention would occupy ~85% of the channel and silence
			// its UEs almost permanently, which is neither the paper's
			// regime nor a useful default.
			stations[k].Traffic = wifi.DutyCycle{Target: 0.35}
		}
	}

	if cfg.SharedMedium && nst > 1 {
		for _, dom := range c.contentionDomains() {
			members := make([]wifi.Station, len(dom))
			for i, k := range dom {
				members[i] = stations[k]
			}
			domActs := wifi.Domain{Stations: members}.Generate(horizon, r.Split(fmt.Sprintf("dom%d", dom[0])))
			for i, k := range dom {
				acts[k] = domActs[i]
			}
		}
	} else {
		for k := 0; k < nst; k++ {
			acts[k] = stations[k].Generate(horizon, r.Split(fmt.Sprintf("st%d", k)))
		}
	}

	c.acts = acts
	c.airtime = make([]float64, nst)
	for k, a := range acts {
		c.airtime[k] = a.Airtime()
	}
	// Hidden-terminal edges and eNB audibility from the geometry.
	c.edges = c.scenario.HiddenTerminalEdges()
	c.hidden = make([]bool, nst)
	for k := 0; k < nst; k++ {
		c.hidden[k] = c.scenario.HiddenFromENB(k)
	}
	if cfg.MobilityAt > 0 && cfg.MobilityAt < cfg.Subframes {
		c.edgesAfter = rotateEdges(c.edges, c.numUE)
	}
}

// attachFaults instantiates the fault scenario's timeline for this
// cell. It must run before computeMasks so injected interference lands
// in the access masks.
func (c *Cell) attachFaults(sc *faults.Scenario) error {
	if sc == nil {
		return nil
	}
	inj, err := faults.New(*sc, c.numUE, c.cfg.Subframes)
	if err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	c.inj = inj
	return nil
}

// rotateEdges models a topology change: each terminal now silences the
// "next" client along the deployment instead (every client moved one
// position).
func rotateEdges(edges []blueprint.ClientSet, n int) []blueprint.ClientSet {
	out := make([]blueprint.ClientSet, len(edges))
	for k, set := range edges {
		var rotated blueprint.ClientSet
		set.ForEach(func(i int) { rotated = rotated.Add((i + 1) % n) })
		out[k] = rotated
	}
	return out
}

// edgesAt returns the edge sets in force at subframe sf.
func (c *Cell) edgesAt(sf int) []blueprint.ClientSet {
	if c.edgesAfter != nil && sf >= c.cfg.MobilityAt {
		return c.edgesAfter
	}
	return c.edges
}

// computeMasks derives per-subframe access masks and eNB LBT outcomes
// from the station activity timelines, edges and eNB audibility.
func (c *Cell) computeMasks() {
	cfg := c.cfg
	c.access = make([]blueprint.ClientSet, cfg.Subframes)
	c.dlInterfered = make([]blueprint.ClientSet, cfg.Subframes)
	c.enbClear = make([]bool, cfg.Subframes)
	full := allClients(c.numUE)
	for sf := 0; sf < cfg.Subframes; sf++ {
		burstStart := sf - sf%cfg.BurstSubframes
		t0 := int64(burstStart) * phy.SubframeDurationUS
		t1 := t0 + lte.UECCAWindowUS
		sfStart := int64(sf) * phy.SubframeDurationUS
		sfEnd := sfStart + phy.SubframeDurationUS
		edges := c.edgesAt(sf)
		var blocked, interfered blueprint.ClientSet
		clear := true
		for k, act := range c.acts {
			if edges[k].Empty() && c.hidden[k] {
				continue
			}
			if act.BusyIn(t0, t1) {
				if !c.hidden[k] {
					clear = false
				} else {
					blocked = blocked.Union(edges[k])
				}
			}
			if c.hidden[k] && act.BusyIn(sfStart, sfEnd) {
				interfered = interfered.Union(edges[k])
			}
		}
		if c.inj != nil {
			// Injected interferers are hidden terminals by construction:
			// they block their victims' CCA and expose them to downlink
			// collisions, but the eNB never hears them.
			extra := c.inj.ExtraBlocked(sf)
			blocked = blocked.Union(extra)
			interfered = interfered.Union(extra)
		}
		c.access[sf] = full.Minus(blocked)
		c.dlInterfered[sf] = interfered
		c.enbClear[sf] = clear
	}
}

func allClients(n int) blueprint.ClientSet {
	var s blueprint.ClientSet
	for i := 0; i < n; i++ {
		s = s.Add(i)
	}
	return s
}

// contentionDomains unions stations that can carrier-sense each other.
func (c *Cell) contentionDomains() [][]int {
	nst := len(c.scenario.Stations)
	parent := make([]int, nst)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for a := 0; a < nst; a++ {
		for b := a + 1; b < nst; b++ {
			d := c.scenario.Stations[a].Dist(c.scenario.Stations[b])
			loss := phy.IndoorOffice().LossDB(d)
			if phy.RxPowerDBm(phy.DefaultTxPowerDBm, loss) >= phy.WiFiCSThresholdDBm {
				parent[find(a)] = find(b)
			}
		}
	}
	groups := make(map[int][]int)
	for i := 0; i < nst; i++ {
		r := find(i)
		groups[r] = append(groups[r], i)
	}
	out := make([][]int, 0, len(groups))
	for _, g := range groups {
		out = append(out, g)
	}
	return out
}

// NumUE returns the number of clients in the cell.
func (c *Cell) NumUE() int { return c.numUE }

// Faults returns the cell's instantiated fault injector, or nil when no
// fault scenario is configured. The controller uses it for observation
// loss/corruption and inference-stall faults; the cell itself already
// folded the injected interference into its access masks.
func (c *Cell) Faults() *faults.Injector { return c.inj }

// Subframes returns the simulated horizon length.
func (c *Cell) Subframes() int { return c.cfg.Subframes }

// AccessMask returns which UEs pass CCA in subframe sf.
func (c *Cell) AccessMask(sf int) blueprint.ClientSet { return c.access[sf] }

// GroundTruth returns the ground-truth blueprint with station airtimes
// as access probabilities (the topology in force before any mobility
// event).
func (c *Cell) GroundTruth() *blueprint.Topology { return c.truth }

// GroundTruthAt returns the ground truth in force at subframe sf,
// accounting for the mobility event if one is configured.
func (c *Cell) GroundTruthAt(sf int) *blueprint.Topology {
	if c.truthAfter != nil && sf >= c.cfg.MobilityAt {
		return c.truthAfter
	}
	return c.truth
}

// PerfectDistribution builds the oracle joint distribution from the
// cell's full access trace — the "perfect knowledge of interference"
// setting of Fig 15.
func (c *Cell) PerfectDistribution() *joint.Empirical {
	e := joint.NewEmpirical(c.numUE)
	for sf := 0; sf < c.cfg.Subframes; sf++ {
		e.Add(c.access[sf])
	}
	return e
}

// scheduledMCS returns the MCS the eNB assigns UE ue on RB group b from
// its average channel knowledge, and whether any MCS is feasible.
func (c *Cell) scheduledMCS(ue, b int) (phy.MCS, bool) {
	return phy.SelectMCS(c.snrDB[ue][b])
}

// Env returns the scheduler environment exposing the eNB's channel
// knowledge (average SNR per RB group, no instantaneous fading).
func (c *Cell) Env() sched.Env {
	return sched.Env{
		NumUE: c.numUE,
		NumRB: numRBGs,
		M:     c.cfg.M,
		K:     c.cfg.K,
		Alpha: 200,
		Rate: func(ue, b int) float64 {
			mcs, ok := c.scheduledMCS(ue, b)
			if !ok {
				return 0
			}
			return bitsPerRBG * mcs.Efficiency
		},
		GroupScale: func(n int) float64 {
			// Expected efficiency ratio of the MU-MIMO DoF penalty at a
			// mid-table operating point.
			if n <= 1 {
				return 1
			}
			pen := phy.MUMIMOStreamSINRdB(0, c.cfg.M, n)
			if math.IsInf(pen, -1) {
				return 0
			}
			// ≈0.25 efficiency loss per 3 dB at mid-SNR slope.
			return math.Max(0.1, 1+pen*0.08)
		},
	}
}

// Step executes uplink subframe sf under the given allocation and
// returns the per-RB-group receive results. If the eNB's own LBT was
// blocked for the burst, every grant is wasted (the TxOP never
// happened) and a nil slice is returned.
func (c *Cell) Step(sf int, schedule *lte.Schedule) []lte.RBResult {
	if sf < 0 || sf >= c.cfg.Subframes {
		return nil
	}
	if !c.enbClear[sf] {
		return nil
	}
	accessible := c.access[sf]
	results := make([]lte.RBResult, len(schedule.RB))
	for b, ues := range schedule.RB {
		if len(ues) == 0 {
			results[b] = lte.RBResult{}
			continue
		}
		transmitted := make([]bool, len(ues))
		mcss := make([]phy.MCS, len(ues))
		sinr := make([]float64, len(ues))
		for i, ue := range ues {
			transmitted[i] = accessible.Has(ue)
			m, ok := c.scheduledMCS(ue, b)
			if !ok {
				m = phy.LowestMCS()
			}
			mcss[i] = m
			sinr[i] = c.snrDB[ue][b] + c.fadeDB[ue][sf]
		}
		if c.cfg.NOMA {
			results[b] = lte.ReceiveNOMA(ues, transmitted, mcss, sinr, c.cfg.M, bitsPerRBG)
		} else {
			results[b] = lte.Receive(ues, transmitted, mcss, sinr, c.cfg.M, bitsPerRBG)
		}
	}
	return results
}

// NewTestbedScenario builds the paper's testbed-scale deployment: one
// eNB at the center, nUE UEs on a ring around it, and nHT WiFi stations
// placed in the UEs' neighborhoods but far from the eNB — so they block
// UEs while staying hidden from the eNB, like Fig 1.
//
// Geometry is sized against the indoor-office path-loss model and the
// −70 dBm energy-detection threshold: at 15 dBm transmit power a
// station is sensed within ≈32 m, so stations sit ≈40 m from the eNB
// (hidden from it) and ≈25 m from their anchor UE (sensed by it), with
// jitter so each station blocks a different subset of UEs.
func NewTestbedScenario(nUE, nHT int, seed uint64) *topology.Scenario {
	r := rng.New(seed)
	floor := geom.Floor{Width: 140, Height: 140}
	enb := floor.Center()
	ues := geom.RingPlacement(enb, 15, nUE, 0.3, r.Split("ues"))
	// Stations sit beyond the UEs on the same bearings (plus jitter):
	// near a UE, far from the eNB.
	stations := make([]geom.Point, nHT)
	for k := range stations {
		anchor := ues[k%len(ues)]
		dx := anchor.X - enb.X
		dy := anchor.Y - enb.Y
		scale := 2.4 + 0.5*r.Float64() // 2.4–2.9× the UE ring radius
		stations[k] = geom.Point{
			X: enb.X + dx*scale + r.NormFloat64()*4,
			Y: enb.Y + dy*scale + r.NormFloat64()*4,
		}
	}
	return topology.Manual(enb, ues, stations, r.Split("shadow"))
}
