package pim

import (
	"math"
	"testing"
)

func TestFaultModelDisabled(t *testing.T) {
	m, err := NewFaultModel(FaultConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if m != nil {
		t.Fatal("zero config should yield a nil (disabled) model")
	}
	if f := m.Draw(0, 0, 0); f.Kind != FaultNone {
		t.Errorf("nil model drew %v", f)
	}
	if m.DrawRankDrop(0, 0) {
		t.Error("nil model dropped a rank")
	}
	if m.Jitter(0, 0) != 0 {
		t.Error("nil model jitter not zero")
	}
}

func TestFaultModelDeterministic(t *testing.T) {
	cfg := FaultConfig{Rate: 0.2, RankDropRate: 0.05, Seed: 42}
	m1, err := NewFaultModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, _ := NewFaultModel(cfg)
	for batch := 0; batch < 10; batch++ {
		for attempt := 0; attempt < 3; attempt++ {
			for dpu := 0; dpu < 64; dpu++ {
				if a, b := m1.Draw(batch, attempt, dpu), m2.Draw(batch, attempt, dpu); a != b {
					t.Fatalf("draw (%d,%d,%d): %v vs %v", batch, attempt, dpu, a, b)
				}
			}
			if a, b := m1.DrawRankDrop(batch, attempt), m2.DrawRankDrop(batch, attempt); a != b {
				t.Fatalf("rank drop (%d,%d): %v vs %v", batch, attempt, a, b)
			}
			if a, b := m1.Jitter(batch, attempt), m2.Jitter(batch, attempt); a != b {
				t.Fatalf("jitter (%d,%d): %v vs %v", batch, attempt, a, b)
			}
		}
	}
	// A different seed must not reproduce the same fault pattern.
	m3, _ := NewFaultModel(FaultConfig{Rate: 0.2, Seed: 43})
	same := true
	for dpu := 0; dpu < 256; dpu++ {
		if m1.Draw(0, 0, dpu) != m3.Draw(0, 0, dpu) {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 42 and 43 drew identical fault patterns")
	}
}

func TestFaultModelRate(t *testing.T) {
	m, err := NewFaultModel(FaultConfig{Rate: 0.1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	const n = 100_000
	kinds := map[FaultKind]int{}
	for i := 0; i < n; i++ {
		f := m.Draw(i, 0, i%64)
		kinds[f.Kind]++
	}
	faults := n - kinds[FaultNone]
	got := float64(faults) / n
	if math.Abs(got-0.1) > 0.01 {
		t.Errorf("empirical fault rate %.4f, want ~0.10", got)
	}
	// Every kind of the default mix must appear.
	for _, k := range []FaultKind{FaultStall, FaultSlow, FaultCrash, FaultCorrupt} {
		if kinds[k] == 0 {
			t.Errorf("kind %v never drawn in %d draws", k, n)
		}
	}
	// Factors are attached to the slowdown kinds only.
	for i := 0; i < 10_000; i++ {
		f := m.Draw(i, 1, i%64)
		switch f.Kind {
		case FaultStall:
			if f.Factor != defaultStallFactor {
				t.Fatalf("stall factor %g", f.Factor)
			}
		case FaultSlow:
			if f.Factor != defaultSlowFactor {
				t.Fatalf("slow factor %g", f.Factor)
			}
		case FaultCrash, FaultCorrupt, FaultNone:
			if f.Factor != 0 {
				t.Fatalf("kind %v has factor %g", f.Kind, f.Factor)
			}
		}
	}
}

func TestFaultModelRankDropRate(t *testing.T) {
	m, err := NewFaultModel(FaultConfig{RankDropRate: 0.2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50_000
	drops := 0
	for i := 0; i < n; i++ {
		if m.DrawRankDrop(i, 0) {
			drops++
		}
	}
	if got := float64(drops) / n; math.Abs(got-0.2) > 0.02 {
		t.Errorf("empirical rank drop rate %.4f, want ~0.20", got)
	}
	// DPU-level draws stay off when only RankDropRate is set.
	if f := m.Draw(0, 0, 0); f.Kind != FaultNone {
		t.Errorf("DPU draw %v with Rate=0", f)
	}
}

func TestFaultConfigValidate(t *testing.T) {
	bad := []FaultConfig{
		{Rate: -0.1},
		{Rate: 1.5},
		{RankDropRate: -1},
		{Rate: math.NaN()},
		{RankDropRate: math.NaN()},
		{Rate: 0.1, SlowWeight: -1},
		{Rate: 0.1, SlowFactor: 0.5},
		{Rate: 0.1, StallFactor: 0.2},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, c)
		}
		if _, err := NewFaultModel(c); err == nil {
			t.Errorf("model %d built from invalid config", i)
		}
	}
	if err := (FaultConfig{Rate: 0.05, Seed: 1}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestFaultKindString(t *testing.T) {
	want := map[FaultKind]string{
		FaultNone: "none", FaultStall: "stall", FaultSlow: "slow",
		FaultCrash: "crash", FaultCorrupt: "corrupt", FaultRankDrop: "rank_drop",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
}

func TestFaultError(t *testing.T) {
	err := &FaultError{DPU: 7, Kind: FaultCrash}
	if err.Error() == "" {
		t.Fatal("empty error string")
	}
}
