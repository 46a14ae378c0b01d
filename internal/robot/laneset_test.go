package robot

import (
	"testing"

	"ravenguard/internal/dynamics"
	"ravenguard/internal/kinematics"
	"ravenguard/internal/motor"
	"ravenguard/internal/usb"
)

// tenant is one scalar/resident plant pair driven through an identical
// DAC + brake program, with a lifecycle window [start, end) in ticks.
type tenant struct {
	scalar *Plant
	packed *Plant
	lane   int // current lane while resident, -1 otherwise
	start  int
	end    int
}

// snapTenant is the tenant driven hard: driveDACs slams the hard stops,
// and its low shoulder break tension snaps a cable while it is resident.
const snapTenant = 7

// tenantConfig builds the shared plant config for pair i.
func tenantConfig(i int) Config {
	cfg := Config{
		Params: dynamics.DefaultParams(),
		Bank:   motor.DefaultBank(),
		Seed:   100 + int64(i),
	}
	if i == snapTenant {
		cfg.BreakTension = [kinematics.NumJoints]float64{2.0, 6, 60}
	}
	return cfg
}

// dacProgram is a deterministic per-tenant torque program that sweeps the
// joints without needing a controller.
func dacProgram(i, tick int) [usb.NumChannels]int16 {
	var d [usb.NumChannels]int16
	d[0] = int16((tick*7+i*13)%4001 - 2000)
	d[1] = int16((tick*11+i*5)%3001 - 1500)
	d[2] = int16((tick*3+i*17)%2001 - 1000)
	d[3] = int16((tick + i) % 500)
	return d
}

// tenantDACs is tenant i's DAC program: dacProgram for most tenants,
// driveDACs for snapTenant.
func tenantDACs(i, tick int) [usb.NumChannels]int16 {
	if i == snapTenant {
		return driveDACs(i, tick)
	}
	return dacProgram(i, tick)
}

// braked is the shared brake schedule: braked for the first 3 ticks of a
// tenant's life, a mid-life braked window, free otherwise.
func braked(i, localTick int) bool {
	if localTick < 3 {
		return true
	}
	mid := 40 + 5*i
	return localTick >= mid && localTick < mid+7
}

// TestLaneSetBitIdenticalToScalar pins the residency guarantee: plants
// living in LaneSet lanes — through admission, brake park/unpark cycles,
// lane swaps forced by neighbours' transitions, and retirement with
// compaction, hard-stop slams and a cable snap — produce bit-identical
// trajectories to scalar twins stepped alone, and a retired plant's full
// captured state (integrator anchors and rng position included) equals its
// twin's, so scalar stepping resumes identically.
func TestLaneSetBitIdenticalToScalar(t *testing.T) {
	const (
		nTenants = 8
		ticks    = 600
		dt       = 1e-3
	)
	set, err := NewLaneSet(nTenants)
	if err != nil {
		t.Fatal(err)
	}
	byLane := make([]*tenant, nTenants)
	set.OnSwap = func(a, b int) {
		byLane[a], byLane[b] = byLane[b], byLane[a]
		if byLane[a] != nil {
			byLane[a].lane = a
		}
		if byLane[b] != nil {
			byLane[b].lane = b
		}
	}

	tenants := make([]*tenant, nTenants)
	for i := range tenants {
		sp, err := NewPlant(tenantConfig(i))
		if err != nil {
			t.Fatal(err)
		}
		pp, err := NewPlant(tenantConfig(i))
		if err != nil {
			t.Fatal(err)
		}
		// Staggered lifecycles: admissions at 0/4/8/..., retirements well
		// before the horizon so post-retirement scalar resume is exercised.
		tenants[i] = &tenant{scalar: sp, packed: pp, lane: -1, start: 4 * i, end: 70 + 6*i}
	}
	// driveDACs first pins a link at its hard stop ~400 ticks in.
	tenants[snapTenant].end = 560
	slammed := false

	dacs := make([][usb.NumChannels]int16, nTenants)
	for tick := 0; tick < ticks; tick++ {
		// Admissions due this tick.
		for i, tn := range tenants {
			if tn.start == tick {
				lane, err := set.Admit(tn.packed)
				if err != nil {
					t.Fatalf("admit tenant %d: %v", i, err)
				}
				tn.lane = lane
				byLane[lane] = tn
			}
		}
		// Control phase: brakes and DACs for every live tenant, twin and
		// resident alike.
		for i, tn := range tenants {
			if tick < tn.start {
				continue
			}
			local := tick - tn.start
			br := braked(i, local)
			d := tenantDACs(i, local)
			tn.scalar.SetBrakes(br)
			tn.scalar.Step(d, dt)
			if tn.lane >= 0 {
				tn.packed.SetBrakes(br)
			} else {
				tn.packed.Step(d, dt) // retired: scalar resume
			}
		}
		// Reconcile first: brake transitions re-home lanes, and dacs are
		// addressed by post-reconcile lane.
		set.Reconcile()
		for lane := 0; lane < set.Resident(); lane++ {
			local := tick - byLane[lane].start
			idx := tenantIndex(tenants, byLane[lane])
			dacs[lane] = tenantDACs(idx, local)
		}
		set.Step(dacs, dt)
		if tn := tenants[snapTenant]; tn.lane >= 0 {
			jp := tn.packed.JointPos()
			for j := range jp {
				slammed = slammed || jp[j] == tn.packed.hard.Min[j] || jp[j] == tn.packed.hard.Max[j]
			}
		}

		// Retirements due after this tick.
		for _, tn := range tenants {
			if tn.lane >= 0 && tick+1 >= tn.end {
				retireTenant(t, set, byLane, tn)
			}
		}

		// Per-tick observable state must match exactly for every live pair.
		for i, tn := range tenants {
			if tick < tn.start {
				continue
			}
			if tn.scalar.JointPos() != tn.packed.JointPos() ||
				tn.scalar.MotorPos() != tn.packed.MotorPos() ||
				tn.scalar.JointVel() != tn.packed.JointVel() ||
				tn.scalar.MotorVel() != tn.packed.MotorVel() {
				t.Fatalf("tenant %d diverged at tick %d (lane %d):\nscalar %v\npacked %v",
					i, tick, tn.lane, tn.scalar.JointPos(), tn.packed.JointPos())
			}
			if tn.scalar.EncoderCounts() != tn.packed.EncoderCounts() {
				t.Fatalf("tenant %d encoder counts diverged at tick %d", i, tick)
			}
			if _, sb := tn.scalar.CableBroken(); sb != tn.packed.broken {
				t.Fatalf("tenant %d cable flags diverged at tick %d: scalar %v packed %v", i, tick, sb, tn.packed.broken)
			}
			if tn.lane < 0 {
				// Retired (or never admitted yet): the complete state —
				// anchors and rng position included — must be equal, so
				// scalar stepping continues bit-identically.
				if tn.scalar.CaptureState() != tn.packed.CaptureState() {
					t.Fatalf("tenant %d full state diverged after retirement at tick %d:\nscalar %+v\npacked %+v",
						i, tick, tn.scalar.CaptureState(), tn.packed.CaptureState())
				}
			}
		}
	}
	if set.Resident() != 0 {
		t.Fatalf("all tenants retired but %d lanes still resident", set.Resident())
	}
	if snapped, _ := tenants[snapTenant].packed.CableBroken(); !snapped || !slammed {
		t.Fatalf("weak fixture: snapped=%v slammed=%v, want a cable snap and a hard-stop slam on the lane path", snapped, slammed)
	}
}

func tenantIndex(tenants []*tenant, tn *tenant) int {
	for i, c := range tenants {
		if c == tn {
			return i
		}
	}
	return -1
}

func retireTenant(t *testing.T, set *LaneSet, byLane []*tenant, tn *tenant) {
	t.Helper()
	lane := tn.lane
	p, err := set.Retire(lane)
	if err != nil {
		t.Fatal(err)
	}
	if p != tn.packed {
		t.Fatalf("retire of lane %d returned the wrong plant", lane)
	}
	// The retired tenant was swapped to the last resident slot before the
	// shrink; clear it from the mirror.
	byLane[set.Resident()] = nil
	tn.lane = -1
}

// TestLaneSetAdmitErrors pins capacity and sub-step homogeneity checks.
func TestLaneSetAdmitErrors(t *testing.T) {
	set, err := NewLaneSet(1)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := NewPlant(tenantConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := set.Admit(p1); err != nil {
		t.Fatal(err)
	}
	p2, err := NewPlant(tenantConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := set.Admit(p2); err == nil {
		t.Fatal("admit past capacity succeeded")
	}

	set2, err := NewLaneSet(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := set2.Admit(p1); err != nil {
		t.Fatal(err)
	}
	oddCfg := tenantConfig(3)
	oddCfg.Substeps = 10
	odd, err := NewPlant(oddCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := set2.Admit(odd); err == nil {
		t.Fatal("admit with mismatched sub-step count succeeded")
	}
}

// TestLaneSetStepAllocs pins the steady-state tick at zero allocations.
func TestLaneSetStepAllocs(t *testing.T) {
	const n = 6
	set, err := NewLaneSet(n)
	if err != nil {
		t.Fatal(err)
	}
	dacs := make([][usb.NumChannels]int16, n)
	for i := 0; i < n; i++ {
		p, err := NewPlant(tenantConfig(i))
		if err != nil {
			t.Fatal(err)
		}
		p.SetBrakes(i%3 == 0) // mixed active/parked steady state
		if _, err := set.Admit(p); err != nil {
			t.Fatal(err)
		}
		dacs[i] = dacProgram(i, 1)
	}
	set.Reconcile()
	set.Step(dacs, 1e-3) // settle the partition
	if avg := testing.AllocsPerRun(200, func() {
		set.Reconcile()
		set.Step(dacs, 1e-3)
	}); avg != 0 {
		t.Fatalf("LaneSet tick allocates %.1f times per tick, want 0", avg)
	}
}

// TestBatchMatchesScalarBitIdentical drives the same plants through a
// LaneSet and through Plant.Step — including brake toggles, hard-stop
// slams, and cable snaps — and requires every lane to be bit-identical at
// every tick: the full state (stepper internals included) while a plant is
// parked or retired, and everything but the lane-resident integrator
// anchors while it is in the active window.
func TestBatchMatchesScalarBitIdentical(t *testing.T) {
	const n, steps = 5, 1200
	// Low shoulder break tension so at least one lane snaps a cable.
	breakT := [kinematics.NumJoints]float64{2.0, 6, 60}
	batchPlants := buildPlants(t, n, breakT)
	scalarPlants := buildPlants(t, n, breakT)

	set, err := NewLaneSet(n)
	if err != nil {
		t.Fatal(err)
	}
	byLane := make([]int, n) // lane → plant index
	set.OnSwap = func(a, b int) { byLane[a], byLane[b] = byLane[b], byLane[a] }
	for i, p := range batchPlants {
		lane, err := set.Admit(p)
		if err != nil {
			t.Fatal(err)
		}
		byLane[lane] = i
	}

	dacs := make([][usb.NumChannels]int16, n)
	for step := 0; step < steps; step++ {
		for i := range batchPlants {
			// Stagger brake release, and re-brake one plant mid-run so the
			// set sees lanes entering and leaving the active window.
			braked := step < 10*i || (i == 2 && step >= 600 && step < 700)
			batchPlants[i].SetBrakes(braked)
			scalarPlants[i].SetBrakes(braked)
			scalarPlants[i].Step(driveDACs(i, step), 1e-3)
		}
		set.Reconcile()
		for lane := 0; lane < set.Resident(); lane++ {
			dacs[lane] = driveDACs(byLane[lane], step)
		}
		set.Step(dacs, 1e-3)
		for lane := 0; lane < set.Resident(); lane++ {
			i := byLane[lane]
			got, want := batchPlants[i], scalarPlants[i]
			if lane >= set.Active() {
				assertPlantsEqual(t, got, want, "parked")
				continue
			}
			if !bitsEqual(got.state.X[:], want.state.X[:]) {
				t.Fatalf("plant %d state diverged at step %d\n got %v\nwant %v", i, step, got.state.X, want.state.X)
			}
			if got.rngSrc.Pos() != want.rngSrc.Pos() || got.broken != want.broken || got.t != want.t ||
				got.wrist.Pos() != want.wrist.Pos() || got.wrist.Vel() != want.wrist.Vel() {
				t.Fatalf("plant %d rng, cable, time or wrist state diverged at step %d", i, step)
			}
		}
	}
	for set.Resident() > 0 {
		if _, err := set.Retire(0); err != nil {
			t.Fatal(err)
		}
	}
	for i := range scalarPlants {
		assertPlantsEqual(t, batchPlants[i], scalarPlants[i], "retired")
	}
	snapped := false
	for _, p := range scalarPlants {
		if b, _ := p.CableBroken(); b {
			snapped = true
		}
	}
	if !snapped {
		t.Fatal("test did not exercise a cable snap; raise the drive or lower BreakTension")
	}
}
