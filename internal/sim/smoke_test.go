package sim

import (
	"testing"

	"blu/internal/sched"
	"blu/internal/wifi"
)

func TestSmokeSchedulers(t *testing.T) {
	sc, err := NewTestbedScenario(8, 12, 42)
	if err != nil {
		t.Fatal(err)
	}
	stations := make([]wifi.Station, 12)
	for k := range stations {
		stations[k].Traffic = wifi.DutyCycle{Target: 0.35}
	}
	cell, err := New(Config{Scenario: sc, Stations: stations, M: 1, Subframes: 3000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	gt := cell.GroundTruth()
	t.Logf("ground truth: %v", gt)
	for i := 0; i < 8; i++ {
		t.Logf("p(%d)=%.2f snr=%.1f", i, gt.AccessProb(i), sc.UplinkSNRdB(i))
	}
	perfect := cell.PerfectDistribution()
	pf, _ := sched.NewPF(cell.Env())
	aa, _ := sched.NewAccessAware(cell.Env(), perfect)
	blu, _ := sched.NewSpeculative(cell.Env(), perfect)
	for _, s := range []sched.Scheduler{pf, aa, blu} {
		m := Run(cell, s, 0, 3000, nil)
		t.Logf("%-4s tput=%.2f Mbps util=%.2f full=%.2f outcomes=%v jain=%.2f defer=%d",
			m.Scheduler, m.ThroughputMbps, m.RBUtilization, m.FullyUtilizedSubframes, m.Outcomes, m.JainFairness, m.ENBDeferrals)
	}
}
