package sim

import (
	"fmt"
	"math"

	"blu/internal/blueprint"
	"blu/internal/phy"
	"blu/internal/trace"
	"blu/internal/wifi"
)

// Export serializes the cell's run into a trace (Section 4.2's data
// collection): per-UE channel traces and per-station interference
// timelines with their ground-truth edges.
func (c *Cell) Export(label string) *trace.Trace {
	t := &trace.Trace{
		Version:   trace.FormatVersion,
		Label:     label,
		NumUE:     c.numUE,
		Subframes: c.cfg.Subframes,
		HorizonUS: int64(c.cfg.Subframes) * phy.SubframeDurationUS,
	}
	for ue := 0; ue < c.numUE; ue++ {
		// Store the wideband mean; frequency selectivity is
		// re-synthesized deterministically on replay.
		var mean float64
		for _, s := range c.snrDB[ue] {
			mean += s
		}
		mean /= float64(len(c.snrDB[ue]))
		t.Channels = append(t.Channels, trace.ChannelTrace{
			MeanSNRdB: mean,
			FadeDB:    append([]float64(nil), c.fadeDB[ue]...),
		})
	}
	for k, act := range c.acts {
		t.Interference = append(t.Interference, trace.InterferenceTrace{
			Busy:          append([]wifi.Interval(nil), act.Busy...),
			Edges:         c.edges[k],
			HiddenFromENB: c.hidden[k],
			Airtime:       c.airtime[k],
		})
	}
	return t
}

// ReplayConfig parameterizes trace replay.
type ReplayConfig struct {
	// M and K as in Config; zero values default the same way.
	M, K int
}

// NewFromTrace builds a cell that replays a recorded (or combined)
// trace: access outcomes and channel states come from the trace, while
// the antenna count and distinct-UE cap may differ from the recording —
// exactly how the paper drives its large emulated topologies with
// testbed traces.
func NewFromTrace(tr *trace.Trace, rc ReplayConfig) (*Cell, error) {
	if tr == nil {
		return nil, fmt.Errorf("sim: nil trace")
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	cfg := Config{M: rc.M, K: rc.K, Subframes: tr.Subframes}.withDefaults()
	c := &Cell{cfg: cfg, numUE: tr.NumUE}

	c.snrDB = make([][]float64, c.numUE)
	c.fadeDB = make([][]float64, c.numUE)
	for ue := 0; ue < c.numUE; ue++ {
		ch := tr.Channels[ue]
		c.snrDB[ue] = make([]float64, numRBGs)
		for b := 0; b < numRBGs; b++ {
			// Deterministic frequency selectivity, same shape as live
			// cells so schedulers see comparable diversity.
			c.snrDB[ue][b] = ch.MeanSNRdB + 3*math.Sin(float64(b)*2.1+float64(ue))
		}
		c.fadeDB[ue] = append([]float64(nil), ch.FadeDB...)
	}

	horizon := int64(cfg.Subframes) * phy.SubframeDurationUS
	for _, it := range tr.Interference {
		act := &wifi.Activity{HorizonUS: horizon}
		for _, iv := range it.Busy {
			if iv.Start >= horizon {
				break
			}
			if iv.End > horizon {
				iv.End = horizon
			}
			act.Busy = append(act.Busy, iv)
		}
		c.acts = append(c.acts, act)
		c.edges = append(c.edges, it.Edges)
		c.hidden = append(c.hidden, it.HiddenFromENB)
		c.airtime = append(c.airtime, act.Airtime())
	}
	c.computeMasks()
	c.truth = traceGroundTruth(tr.NumUE, c.edges, c.hidden, c.airtime)
	return c, nil
}

func traceGroundTruth(n int, edges []blueprint.ClientSet, hidden []bool, airtime []float64) *blueprint.Topology {
	topo := &blueprint.Topology{N: n}
	for k := range edges {
		if !hidden[k] || edges[k].Empty() || airtime[k] <= 0 {
			continue
		}
		q := airtime[k]
		if q >= 1 {
			q = 1 - 1e-9
		}
		topo.HTs = append(topo.HTs, blueprint.HiddenTerminal{Q: q, Clients: edges[k]})
	}
	return topo.Normalize()
}
