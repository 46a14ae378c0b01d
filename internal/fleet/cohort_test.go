package fleet

import (
	"testing"

	"ravenguard/internal/console"
	"ravenguard/internal/core"
	"ravenguard/internal/fault"
	"ravenguard/internal/sim"
	"ravenguard/internal/trajectory"
)

// cohortMember builds one rig of the cohort fixture: a standard session of
// the given length, optionally guarded, optionally under a fault plan
// (applied after the guard, so write-path faults land below it).
func cohortMember(t *testing.T, seed int64, teleop float64, guarded bool, events []fault.Event) (*sim.Rig, *core.Guard, *[]sim.StepInfo) {
	t.Helper()
	cfg := sim.Config{
		Seed:   seed,
		Script: console.StandardScript(teleop),
		Traj:   trajectory.Standard()[0],
	}
	var g *core.Guard
	if guarded {
		var err error
		g, err = core.NewGuard(core.Config{Thresholds: core.DefaultThresholds()})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Guards = []sim.Hook{g}
	}
	if events != nil {
		if _, err := (fault.Plan{Seed: 7, Events: events}).Apply(&cfg); err != nil {
			t.Fatal(err)
		}
	}
	rig, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	steps := &[]sim.StepInfo{}
	rig.Observe(func(si sim.StepInfo) { *steps = append(*steps, si) })
	return rig, g, steps
}

// TestCohortMatchesSoloRuns pins the campaign fan-out engine: a
// heterogeneous cohort — guarded and unguarded, faulted, scripts of
// different lengths so sessions retire at different ticks — run through
// Adopt and RunCohort produces the same full StepInfo stream per rig as
// running each rig alone with Rig.Run. The last member stalls the board
// while its guard defers prediction, so the stalled board rejects frames
// the worker resumes; the session must ride through it (Wrote=false) as
// the scalar path does, not abort the cohort.
func TestCohortMatchesSoloRuns(t *testing.T) {
	type member struct {
		seed    int64
		teleop  float64
		guarded bool
		events  []fault.Event
	}
	members := []member{
		{seed: 81, teleop: 4, guarded: true},
		{seed: 82, teleop: 3},
		{seed: 83, teleop: 5},
		{seed: 84, teleop: 4, guarded: true, events: []fault.Event{
			{At: 3.2, Duration: 0.4, Kind: fault.KindEncoderDropout, Params: fault.Params{Rate: 0.5}},
			{At: 4.1, Duration: 0.3, Kind: fault.KindPacketLoss},
		}},
		{seed: 85, teleop: 4, guarded: true, events: []fault.Event{
			{At: 3.2, Duration: 0.2, Kind: fault.KindBoardStall},
		}},
	}
	const stalled = 4

	solo := make([]*[]sim.StepInfo, len(members))
	var soloStall *sim.Rig
	for i, m := range members {
		rig, _, steps := cohortMember(t, m.seed, m.teleop, m.guarded, m.events)
		if _, err := rig.Run(0); err != nil {
			t.Fatalf("member %d solo: %v", i, err)
		}
		solo[i] = steps
		if i == stalled {
			soloStall = rig
		}
	}

	cohort := make([]*Session, len(members))
	got := make([]*[]sim.StepInfo, len(members))
	for i, m := range members {
		rig, g, steps := cohortMember(t, m.seed, m.teleop, m.guarded, m.events)
		cohort[i] = Adopt(rig, g)
		got[i] = steps
	}
	if err := RunCohort(cohort); err != nil {
		t.Fatal(err)
	}

	for i := range members {
		want, have := *solo[i], *got[i]
		if len(want) != len(have) {
			t.Fatalf("member %d: solo ran %d steps, cohort %d", i, len(want), len(have))
		}
		for j := range want {
			if want[j] != have[j] {
				t.Fatalf("member %d diverged at step %d (t=%.3f s)", i, j, want[j].T)
			}
		}
	}

	// The stall member must really have had frames rejected while its
	// guard ran deferred in the cohort.
	if soloStall.FaultCounters().BoardStallDrops == 0 {
		t.Fatal("weak fixture: the stalled board dropped no frames")
	}
	if g := cohort[stalled].Guard(); g.StepTime().N != 0 {
		t.Fatal("weak fixture: the stalled member's guard did not run deferred")
	}
}
