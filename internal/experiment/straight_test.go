package experiment

// The straight (pre-forking) campaign runners: every session is simulated
// from t=0, one rig per run, no shared prefix. They are the byte-identity
// oracles of fork_equivalence_test.go and the "before" baselines of
// campaign_bench_test.go.

import (
	"fmt"

	"ravenguard/internal/console"
	"ravenguard/internal/core"
	"ravenguard/internal/fault"
	"ravenguard/internal/inject"
	"ravenguard/internal/sim"
	"ravenguard/internal/statemachine"
	"ravenguard/internal/trajectory"
)

// runTable1Straight is the pre-forking implementation: one full attacked
// session plus one full fault-free reference per variant, no shared
// prefix. Kept as the byte-identity oracle and the "before" baseline for
// the campaign benchmarks.
func runTable1Straight(baseSeed int64) (Table1Result, error) {
	variants := inject.AllVariants()
	rows, err := runJobs(len(variants), func(i int) (Table1Row, error) {
		return table1Row(baseSeed, variants[i])
	})
	if err != nil {
		return Table1Result{}, err
	}
	return Table1Result{Rows: rows}, nil
}

// table1Row runs one variant's session and classifies its impact.
func table1Row(baseSeed int64, v inject.Variant) (Table1Row, error) {
	cfg := sim.Config{
		Seed:   baseSeed + int64(v),
		Script: console.StandardScript(6),
		Traj:   trajectory.Standard()[0],
	}
	vc := inject.VariantConfig{Variant: v, StartAt: 4.0, Seed: int64(v)}
	installed, err := vc.Apply(&cfg)
	if err != nil {
		return Table1Row{}, err
	}
	rig, err := sim.New(cfg)
	if err != nil {
		return Table1Row{}, err
	}

	// Reference trace for deviation classification.
	refTrial := Trial{Seed: cfg.Seed, TrajIdx: 0, Teleop: 6}
	ref, err := refTrial.reference()
	if err != nil {
		return Table1Row{}, err
	}

	row := Table1Row{Variant: v, Installed: installed}
	step := 0
	halted := false
	brakedInDown := 0
	rig.Observe(func(si sim.StepInfo) {
		if !halted && step < len(ref) {
			if d := si.TipTrue.DistanceTo(ref[step]); d > row.MaxDevMM/1e3 {
				row.MaxDevMM = d * 1e3
			}
		}
		if si.PLCEStop {
			halted = true
		}
		if si.Ctrl.State == statemachine.PedalDown && rig.PLC().BrakesEngaged() {
			brakedInDown++
		}
		step++
	})
	if _, err := rig.Run(0); err != nil {
		return Table1Row{}, err
	}
	row.FinalState = rig.Controller().State()
	row.IKFails = rig.Controller().IKFails()
	row.SafetyTrips = rig.Controller().SafetyTrips()
	row.PLCEStopped = rig.PLC().EStopped()
	row.Impact = classifyImpact(row, brakedInDown)
	return row, nil
}

// runOne executes one seeded run of kind k under policy pol. A panic
// anywhere in the pipeline is caught and reported as a crashed run.
func (c FaultCampaignConfig) runOne(k fault.Kind, pol GuardPolicy, seedIdx int) (rec faultRun, err error) {
	defer func() {
		if r := recover(); r != nil {
			rec = faultRun{crashed: true}
			err = nil
		}
	}()

	rigSeed := c.BaseSeed + int64(seedIdx)
	ref, err := (Trial{Seed: rigSeed, TrajIdx: 0, Teleop: c.Teleop}).reference()
	if err != nil {
		return rec, err
	}

	cfg := sim.Config{
		Seed:   rigSeed,
		Script: console.StandardScript(c.Teleop),
		Traj:   trajectory.Standard()[0],
	}
	var guard *core.Guard
	if pol != PolicyOff {
		guard, err = core.NewGuard(core.Config{
			Thresholds: core.DefaultThresholds(),
			Mode:       pol.guardMode(),
		})
		if err != nil {
			return rec, err
		}
		cfg.Guards = append(cfg.Guards, guard)
	}
	// Apply after the guard so the write-path faulter lands below it, at
	// the bus.
	inj, err := campaignPlan(k, c.BaseSeed*1000+int64(seedIdx)).Apply(&cfg)
	if err != nil {
		return rec, err
	}
	rig, err := sim.New(cfg)
	if err != nil {
		return rec, err
	}

	halted, step := false, 0
	rig.Observe(func(si sim.StepInfo) {
		if !halted && step < len(ref) {
			if d := si.TipTrue.DistanceTo(ref[step]); d > rec.maxDev {
				rec.maxDev = d
			}
		}
		if si.PLCEStop {
			halted = true
		}
		step++
	})
	if _, err := rig.Run(0); err != nil {
		return rec, err
	}

	rec.applied = inj.Total()
	rec.alarm = guard != nil && guard.Alarms() > 0
	rec.halted = rig.PLC().EStopped() || rig.Controller().State() == statemachine.EStop
	rec.impact = rec.maxDev > AdverseJumpThreshold
	return rec, nil
}

// runFaultCampaignStraight is the pre-forking implementation: every
// (kind, policy, seed) run simulates its full session from t=0. Kept as
// the byte-identity oracle and the "before" baseline for the campaign
// benchmarks.
func runFaultCampaignStraight(c FaultCampaignConfig) (FaultCampaignResult, error) {
	if c.Seeds <= 0 {
		c.Seeds = 3
	}
	if c.Teleop <= 0 {
		c.Teleop = 6
	}
	kinds := c.Kinds
	if len(kinds) == 0 {
		kinds = fault.AllKinds()
	}

	type faultJob struct {
		kind fault.Kind
		pol  GuardPolicy
		seed int
	}
	jobs := make([]faultJob, 0, len(kinds)*len(AllPolicies())*c.Seeds)
	for _, k := range kinds {
		for _, pol := range AllPolicies() {
			for s := 0; s < c.Seeds; s++ {
				jobs = append(jobs, faultJob{k, pol, s})
			}
		}
	}
	recs, err := runJobs(len(jobs), func(i int) (faultRun, error) {
		j := jobs[i]
		rec, err := c.runOne(j.kind, j.pol, j.seed)
		if err != nil {
			return faultRun{}, fmt.Errorf("experiment: fault campaign %v/%v seed %d: %w", j.kind, j.pol, j.seed, err)
		}
		return rec, nil
	})
	if err != nil {
		return FaultCampaignResult{}, err
	}

	var out FaultCampaignResult
	idx := 0
	for range kinds {
		truth := make([]bool, c.Seeds)
		for _, pol := range AllPolicies() {
			cell := FaultCell{Kind: jobs[idx].kind, Policy: pol, Seeds: c.Seeds}
			for s := 0; s < c.Seeds; s++ {
				rec := recs[idx]
				idx++
				if pol == PolicyOff {
					truth[s] = rec.impact
				}
				switch classifyFaultOutcome(rec, truth[s]) {
				case OutcomeCrash:
					cell.Crashes++
				case OutcomeFalseAlarm:
					cell.FalseAlarms++
				case OutcomeEStop:
					cell.EStops++
				case OutcomeMissedImpact:
					cell.Missed++
				case OutcomeRodeThrough:
					cell.RodeThrough++
				}
				if rec.alarm {
					cell.Detected++
				}
				cell.FaultsApplied += rec.applied
				if mm := rec.maxDev * 1e3; mm > cell.MaxDevMM {
					cell.MaxDevMM = mm
				}
				if pol != PolicyOff && !rec.crashed {
					out.Confusion.Observe(truth[s], rec.alarm)
				}
			}
			out.Cells = append(out.Cells, cell)
		}
	}
	return out, nil
}
