package sim

import (
	"math"

	"blu/internal/lte"
	"blu/internal/obs"
	"blu/internal/sched"
)

// Run-level throughput accounting for the obs layer, recorded once per
// Run (never inside the subframe loop).
var (
	obsRuns         = obs.GetCounter("sim_runs_total")
	obsSubframes    = obs.GetCounter("sim_subframes_total")
	obsENBDeferrals = obs.GetCounter("sim_enb_deferrals_total")
	obsBits         = obs.GetFloatCounter("sim_bits_total")
	obsThroughput   = obs.GetHistogram("sim_run_throughput_mbps",
		[]float64{0.5, 1, 2, 4, 8, 16, 32, 64})
)

// Metrics aggregates one scheduler run the way the paper's figures
// report results.
type Metrics struct {
	// Scheduler is the scheduler's display name.
	Scheduler string
	// Subframes is the number of uplink subframes executed.
	Subframes int
	// TotalBits is the aggregate delivered payload.
	TotalBits float64
	// ThroughputMbps is the aggregate uplink goodput.
	ThroughputMbps float64
	// BitsPerUE is the per-client delivered payload.
	BitsPerUE []float64
	// RBUtilization is the fraction of granted RB units that carried at
	// least one decoded stream (Figs 12, 13, 18).
	RBUtilization float64
	// DoFUtilization is decoded streams over M·(granted RB units) —
	// the MU-MIMO degrees-of-freedom actually used.
	DoFUtilization float64
	// FullyUtilizedSubframes is the fraction of subframes in which
	// every granted RB unit was utilized (Fig 4b).
	FullyUtilizedSubframes float64
	// Outcomes counts grant outcomes by classification.
	Outcomes map[lte.Outcome]int
	// ENBDeferrals counts subframes lost to the eNB's own LBT.
	ENBDeferrals int
	// JainFairness is Jain's index over per-UE delivered bits.
	JainFairness float64
}

// GainOver returns the throughput ratio of m to base.
func (m *Metrics) GainOver(base *Metrics) float64 {
	if base.ThroughputMbps == 0 {
		return math.Inf(1)
	}
	return m.ThroughputMbps / base.ThroughputMbps
}

// Observer is an optional per-subframe tap into a run; BLU's controller
// uses it to keep feeding its access estimator during the speculative
// phase (Section 3.7).
type Observer func(sf int, schedule *lte.Schedule, results []lte.RBResult)

// Run drives scheduler s over uplink subframes [from, to) of the cell
// and returns the aggregated metrics. tap, if non-nil, sees every
// subframe.
func Run(c *Cell, s sched.Scheduler, from, to int, tap Observer) *Metrics {
	return run(c, s, from, to, tap, c.Step)
}

// stepScheduler is the part of a scheduler the subframe loop drives.
type stepScheduler interface {
	Name() string
	Schedule(sf int) *lte.Schedule
	Observe(sf int, results []lte.RBResult)
}

// run is the subframe loop behind Run and RunDL: schedule, execute the
// subframe with step (nil results mean the eNB's own LBT deferred the
// TxOP), feed the results back, and aggregate.
func run(c *Cell, s stepScheduler, from, to int, tap Observer, step func(sf int, schedule *lte.Schedule) []lte.RBResult) *Metrics {
	if from < 0 {
		from = 0
	}
	if to > c.cfg.Subframes {
		to = c.cfg.Subframes
	}
	m := &Metrics{
		Scheduler: s.Name(),
		BitsPerUE: make([]float64, c.numUE),
		Outcomes:  make(map[lte.Outcome]int),
	}
	executed := 0
	for sf := from; sf < to; sf++ {
		schedule := s.Schedule(sf)
		results := step(sf, schedule)
		if results == nil {
			m.ENBDeferrals++
			s.Observe(sf, nil)
			if tap != nil {
				tap(sf, schedule, nil)
			}
			m.Subframes++
			continue
		}
		granted, utilized, streams, grantedDoF := 0, 0, 0, 0
		for _, res := range results {
			if len(res.Scheduled) == 0 {
				continue
			}
			granted++
			grantedDoF += c.cfg.M
			if res.Utilized() {
				utilized++
			}
			streams += res.DecodedStreams()
			for i, ue := range res.Scheduled {
				m.Outcomes[res.Outcomes[i]]++
				m.BitsPerUE[ue] += res.Bits[i]
				m.TotalBits += res.Bits[i]
			}
		}
		m.RBUtilization += safeDiv(float64(utilized), float64(granted))
		m.DoFUtilization += safeDiv(float64(streams), float64(grantedDoF))
		if granted > 0 && utilized == granted {
			m.FullyUtilizedSubframes++
		}
		s.Observe(sf, results)
		if tap != nil {
			tap(sf, schedule, results)
		}
		m.Subframes++
		executed++
	}
	// Utilization ratios are per executed TxOP subframe; throughput is
	// over wall-clock time including eNB deferrals.
	if executed > 0 {
		n := float64(executed)
		m.RBUtilization /= n
		m.DoFUtilization /= n
		m.FullyUtilizedSubframes /= n
	}
	if m.Subframes > 0 {
		// One subframe per millisecond.
		m.ThroughputMbps = m.TotalBits / (float64(m.Subframes) * 1000)
	}
	m.JainFairness = jain(m.BitsPerUE)
	if obs.Enabled() && m.Subframes > 0 {
		obsRuns.Inc()
		obsSubframes.Add(int64(m.Subframes))
		obsENBDeferrals.Add(int64(m.ENBDeferrals))
		obsBits.Add(m.TotalBits)
		obsThroughput.Observe(m.ThroughputMbps)
	}
	return m
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// JainIndex returns Jain's fairness index over per-client values.
func JainIndex(xs []float64) float64 { return jain(xs) }

func jain(xs []float64) float64 {
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sq)
}
