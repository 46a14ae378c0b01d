package fleet

import (
	"testing"
)

// benchSpecs mirrors the bench.sh fleet mix at n sessions: a third clean,
// a third under scenario B with mitigation, a third under scenario A with
// hold-safe.
func benchSpecs(n int) []Spec {
	specs := make([]Spec, n)
	for i := range specs {
		sp := Spec{Seed: int64(1000 + i), TeleopSeconds: 4}
		switch i % 3 {
		case 1:
			sp.Attack, sp.Guard = "B", "mitigate"
			sp.AttackValue, sp.AttackDelay, sp.AttackDuration = 20000, 150, 64
		case 2:
			sp.Attack, sp.Guard = "A", "holdsafe"
			sp.AttackMagnitude, sp.AttackDelay, sp.AttackDuration = 0.004, 150, 64
		}
		specs[i] = sp
	}
	return specs
}

// BenchmarkWorkerTick measures one steady-state worker tick over 64
// resident mixed sessions — the fleet engine's hot loop. ns/op divided by
// 64 is the per-session tick cost that bounds sessions/core. The scripts
// never end (TeleopSeconds 1e9), so every lane stays resident and ns/op
// does not depend on -benchtime; the run fails if residency drops.
func BenchmarkWorkerTick(b *testing.B) {
	const lanes = 64
	w, err := NewWorker(lanes, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, sp := range benchSpecs(lanes) {
		sp.TeleopSeconds = 1e9
		s, err := sp.Build()
		if err != nil {
			b.Fatal(err)
		}
		if err := w.Admit(s); err != nil {
			b.Fatal(err)
		}
	}
	// Warm through homing into teleoperation so the measured ticks exercise
	// the pedal-down path (guard predictions, trajectory evaluation).
	for i := 0; i < 3000; i++ {
		if err := w.Tick(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Tick(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got := w.Resident(); got != lanes {
		b.Fatalf("%d of %d lanes resident after the run, want all", got, lanes)
	}
	b.ReportMetric(float64(w.Resident()), "resident_lanes")
}
