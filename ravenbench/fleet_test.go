package main

import (
	"bytes"
	"testing"

	"ravenguard/internal/sim"
)

// tinyFleet is a fleet small enough for unit tests that still attacks,
// alarms, holds and e-stops: the attacks start 150 ticks into a 0.5 s
// teleoperation.
var tinyFleet = fleetShape{name: "tiny-fleet", sessions: 4, teleop: 0.5, stagger: 8, guarded: true, samples: 4, setupReps: 1}

func tinyRun(t *testing.T, sh fleetShape) *fleetRun {
	t.Helper()
	o := options{seed: 7, seconds: 1e-3, clock: sim.WallClock}
	f := &fleetRun{sh: sh, o: o, specs: fleetSpecs(o.seed, sh), rep: newReport(sh.name)}
	var err error
	if f.expect, err = scriptTicks(sh.teleop); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFleetSpecsFromSeed(t *testing.T) {
	a, b := fleetSpecs(3, fleetGuarded), fleetSpecs(3, fleetGuarded)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("spec %d differs for one seed: %+v vs %+v", i, a[i], b[i])
		}
	}
	kinds := map[sessionKind]int{}
	first := fleetGuarded.stagger
	for _, sp := range a {
		kinds[sessionKind{sp.Attack, sp.Guard}]++
		first = min(first, sp.StartTick)
		if sp.StartTick < 0 || sp.StartTick >= fleetGuarded.stagger {
			t.Errorf("admission tick %d outside [0, %d)", sp.StartTick, fleetGuarded.stagger)
		}
	}
	if first != 0 {
		t.Errorf("earliest admission at tick %d, want 0", first)
	}
	for _, k := range guardedMix {
		if kinds[k] != fleetGuarded.sessions/len(guardedMix) {
			t.Errorf("%v: %d sessions, want %d", k, kinds[k], fleetGuarded.sessions/len(guardedMix))
		}
	}
	c := fleetSpecs(4, fleetGuarded)
	same := 0
	for i := range a {
		if a[i].Seed == c[i].Seed {
			same++
		}
	}
	if same == len(a) {
		t.Error("another workload seed left every session seed unchanged")
	}
	if s := oracleSample(3, a, 4); len(s) != 4 {
		t.Errorf("oracle sample %v, want one session of each of the 4 kinds", s)
	}
}

// TestTracedDriverMatchesWorker pins traced-run fidelity: the benchmark's
// stage-traced tick driver reproduces fleet.Worker's digests session for
// session.
func TestTracedDriverMatchesWorker(t *testing.T) {
	f := tinyRun(t, tinyFleet)
	_, plain, ok := f.round("untraced", false, true)
	if !ok {
		t.Fatal(f.rep.problems)
	}
	_, traced, ok := f.round("traced", true, false)
	if !ok {
		t.Fatal(f.rep.problems)
	}
	for i := range plain.sessions {
		if a, b := plain.sessions[i].Sum(), traced.sessions[i].Sum(); a != b {
			t.Errorf("session %d: Worker digest %016x, traced driver %016x", i, a, b)
		}
	}
	if f.rep.failed != 0 {
		t.Errorf("checks failed: %v", f.rep.problems)
	}
	if o := fleetOutcomes(plain.sessions); o.alarms == 0 || o.mitigated == 0 || o.held == 0 || o.estops == 0 {
		t.Errorf("tiny guarded fleet outcomes %+v: every attacked path should run", o)
	}
}

// TestStageSumAccounting pins the trace's bookkeeping with a clock that
// advances one unit per read: every stage gets exactly one unit per tick,
// whatever the session count, and tick time is the stages plus the
// unaccounted remainder.
func TestStageSumAccounting(t *testing.T) {
	f := tinyRun(t, tinyFleet)
	f.o.clock = sim.TickClock(1)
	su, r, ok := f.round("traced", true, false)
	if !ok {
		t.Fatal(f.rep.problems)
	}
	tr := su.worker.(*tracedWorker).tr
	for _, ns := range r.lat {
		tr.tickNs += int64(ns)
	}
	if tr.ticks != int64(len(r.lat)) || tr.ticks == 0 {
		t.Fatalf("traced %d ticks, round timed %d", tr.ticks, len(r.lat))
	}
	for s, ns := range tr.ns {
		if ns != tr.ticks {
			t.Errorf("stage %s: %d clock units over %d ticks, want one per tick", stageNames[s], ns, tr.ticks)
		}
	}
	// Per tick: the driver's read before Tick, eleven boundary reads, the
	// driver's read after; the two outer reads are the unaccounted part.
	if un := tr.tickNs - tr.staged(); un != 2*tr.ticks {
		t.Errorf("unaccounted %d units over %d ticks, want %d", un, tr.ticks, 2*tr.ticks)
	}
	if tr.sessionTicks != r.residentSum {
		t.Errorf("traced %d session ticks, round counted %d", tr.sessionTicks, r.residentSum)
	}
	rep := newReport("t")
	tr.report(rep)
	if got := rep.values["tick.unaccounted_ns"]; got != 2 {
		t.Errorf("tick.unaccounted_ns = %g, want 2", got)
	}
}

// TestFleetChecksCatchMismatches feeds each correctness check a wrong
// result and expects it counted as failed session ticks.
func TestFleetChecksCatchMismatches(t *testing.T) {
	f := tinyRun(t, tinyFleet)
	if _, _, ok := f.round("reference", false, false); !ok {
		t.Fatal(f.rep.problems)
	}

	other := tinyRun(t, tinyFleet)
	other.specs = fleetSpecs(8, tinyFleet)
	_, r, ok := other.round("other seed", false, false)
	if !ok {
		t.Fatal(other.rep.problems)
	}
	f.check("digests", r.sessions)
	if f.rep.failed == 0 {
		t.Error("sessions of another seed passed the digest check")
	}

	f.rep = newReport(f.sh.name)
	f.expect++
	f.check("ticks", f.ref)
	if want := int64(f.sh.sessions * f.expect); f.rep.failed != want {
		t.Errorf("tick-count check failed %d session ticks, want %d", f.rep.failed, want)
	}

	f.expect--
	f.rep = newReport(f.sh.name)
	f.ref = r.sessions // fleet digests of another seed against this seed's standalone runs
	f.oracle()
	if f.rep.failed == 0 {
		t.Error("standalone oracle accepted another seed's digests")
	}
}

// TestFleetWorkloadSmoke runs each fleet workload's code path end to end at
// tiny size, untraced and traced, and expects every check to pass.
func TestFleetWorkloadSmoke(t *testing.T) {
	for _, sh := range []fleetShape{
		{name: "tiny-bare", sessions: 3, teleop: 0.5, stagger: 8, samples: 2, setupReps: 2},
		tinyFleet,
	} {
		for _, trace := range []bool{false, true} {
			rep, err := runFleet(sh, options{seed: 5, seconds: 1e-3, trace: trace, clock: sim.WallClock})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", sh.name, trace, err)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			var out bytes.Buffer
			if err := rep.write(&out, defs); err != nil {
				t.Fatal(err)
			}
			res := lastResult(t, out.String())
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: %+v\n%s", sh.name, trace, res, out.String())
			}
			if !trace {
				for _, d := range endToEnd {
					if res.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: %s = %g, end-to-end metrics are never 0", sh.name, d.name, res.Metrics[d.name].Value)
					}
				}
				continue
			}
			preds := res.Metrics["guard.predictions_per_tick"].Value
			if sh.guarded != (preds > 0) {
				t.Errorf("%s: guard.predictions_per_tick = %g", sh.name, preds)
			}
			if res.Metrics["plant.ns_per_active_lane"].Value <= 0 || res.Metrics["command.ns_per_session_tick"].Value <= 0 {
				t.Errorf("%s: plant or command stage unmeasured", sh.name)
			}
		}
	}
}
