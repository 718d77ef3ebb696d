package lte

import (
	"testing"

	"blu/internal/phy"
	"blu/internal/rng"
)

func TestScheduleValidate(t *testing.T) {
	s := NewSchedule(3)
	s.RB[0] = []int{1, 2}
	s.RB[1] = []int{2}
	s.RB[2] = []int{3, 4, 5}
	if got := s.DistinctUEs(); got != 5 {
		t.Errorf("DistinctUEs = %d, want 5", got)
	}
	if err := s.Validate(5); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
	if err := s.Validate(4); err == nil {
		t.Error("K violation accepted")
	}
	if err := s.Validate(0); err != nil {
		t.Errorf("disabled K check failed: %v", err)
	}
	s.RB[0] = []int{-1}
	if err := s.Validate(0); err == nil {
		t.Error("negative UE accepted")
	}
}

// Transmitted reports how many scheduled UEs actually transmitted
// (passed CCA), i.e. whose pilots the eNB received.
func (r *RBResult) Transmitted() int {
	n := 0
	for _, o := range r.Outcomes {
		if o == OutcomeCollision || o == OutcomeFading || o == OutcomeSuccess {
			n++
		}
	}
	return n
}

func mcsFor(t *testing.T, snr float64) phy.MCS {
	t.Helper()
	m, ok := phy.SelectMCS(snr)
	if !ok {
		t.Fatalf("no MCS at %v dB", snr)
	}
	return m
}

func TestReceiveClassification(t *testing.T) {
	const bitsPerRE = 144
	m := mcsFor(t, 10)

	t.Run("blocked", func(t *testing.T) {
		res := Receive([]int{0}, []bool{false}, []phy.MCS{m}, []float64{10}, 1, bitsPerRE)
		if res.Outcomes[0] != OutcomeBlocked || res.Bits[0] != 0 {
			t.Errorf("outcome = %v bits=%v", res.Outcomes[0], res.Bits[0])
		}
		if res.Transmitted() != 0 || res.Utilized() {
			t.Error("blocked grant counted as transmission")
		}
	})

	t.Run("success", func(t *testing.T) {
		res := Receive([]int{0}, []bool{true}, []phy.MCS{m}, []float64{12}, 1, bitsPerRE)
		if res.Outcomes[0] != OutcomeSuccess {
			t.Fatalf("outcome = %v", res.Outcomes[0])
		}
		if res.Bits[0] != bitsPerRE*m.Efficiency {
			t.Errorf("bits = %v", res.Bits[0])
		}
		if !res.Utilized() || res.DecodedStreams() != 1 {
			t.Error("success not counted")
		}
	})

	t.Run("fading", func(t *testing.T) {
		// Actual SINR fell below the scheduled MCS requirement.
		res := Receive([]int{0}, []bool{true}, []phy.MCS{m}, []float64{m.MinSNRdB - 3}, 1, bitsPerRE)
		if res.Outcomes[0] != OutcomeFading {
			t.Errorf("outcome = %v", res.Outcomes[0])
		}
	})

	t.Run("collision", func(t *testing.T) {
		// Two transmissions on one SISO antenna: nothing resolvable.
		res := Receive([]int{0, 1}, []bool{true, true},
			[]phy.MCS{m, m}, []float64{20, 20}, 1, bitsPerRE)
		for i, o := range res.Outcomes {
			if o != OutcomeCollision {
				t.Errorf("outcome[%d] = %v", i, o)
			}
		}
		if res.Utilized() {
			t.Error("collision counted as utilization")
		}
		if res.Transmitted() != 2 {
			t.Error("collision pilots not counted as transmissions")
		}
	})

	t.Run("over-scheduled success", func(t *testing.T) {
		// Three grants, one blocked: the other two resolve on M=2.
		res := Receive([]int{0, 1, 2}, []bool{true, false, true},
			[]phy.MCS{m, m, m}, []float64{20, 20, 20}, 2, bitsPerRE)
		if res.Outcomes[0] != OutcomeSuccess || res.Outcomes[2] != OutcomeSuccess {
			t.Errorf("outcomes = %v", res.Outcomes)
		}
		if res.Outcomes[1] != OutcomeBlocked {
			t.Errorf("blocked UE = %v", res.Outcomes[1])
		}
		if res.DecodedStreams() != 2 {
			t.Errorf("decoded = %d", res.DecodedStreams())
		}
	})

	t.Run("MU-MIMO derating can fade a stream", func(t *testing.T) {
		// Two streams on M=2: each loses 3 dB; a stream scheduled with
		// no margin fails while a stronger one survives.
		tight := mcsFor(t, 10) // requires 10 dB
		res := Receive([]int{0, 1}, []bool{true, true},
			[]phy.MCS{tight, tight}, []float64{10.5, 14}, 2, bitsPerRE)
		if res.Outcomes[0] != OutcomeFading {
			t.Errorf("tight stream = %v", res.Outcomes[0])
		}
		if res.Outcomes[1] != OutcomeSuccess {
			t.Errorf("strong stream = %v", res.Outcomes[1])
		}
	})
}

func TestOutcomeString(t *testing.T) {
	want := map[Outcome]string{
		OutcomeIdle: "idle", OutcomeBlocked: "blocked",
		OutcomeCollision: "collision", OutcomeFading: "fading",
		OutcomeSuccess: "success",
	}
	for o, s := range want {
		if o.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(o), o.String(), s)
		}
	}
	if Outcome(99).String() == "" {
		t.Error("unknown outcome has empty string")
	}
}

func TestLBT(t *testing.T) {
	l := NewLBT(phy.EnergyDetectThresholdDBm)
	if !l.ClearAt(-80) {
		t.Error("clear channel not detected")
	}
	if l.ClearAt(-60) {
		t.Error("busy channel passed CCA")
	}
	r := rng.New(1)
	for i := 0; i < 100; i++ {
		if b := l.DrawBackoffSlots(r); b < 0 || b > l.CWMin {
			t.Fatalf("backoff %d outside [0,%d]", b, l.CWMin)
		}
	}
	l.Defer()
	l.Defer()
	if l.cw <= l.CWMin {
		t.Error("contention window did not grow")
	}
	for i := 0; i < 10; i++ {
		l.Defer()
	}
	if l.cw > l.CWMax {
		t.Errorf("contention window %d exceeded max %d", l.cw, l.CWMax)
	}
	l.Reset()
	if l.cw != l.CWMin {
		t.Error("reset did not restore CWMin")
	}
}

func TestGrantString(t *testing.T) {
	g := Grant{UE: 3, RB: 7, SF: 11}
	if g.String() != "grant{ue=3 rb=7 sf=11}" {
		t.Errorf("String = %q", g.String())
	}
}
