package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"

	"ravenguard/internal/fleet"
	"ravenguard/internal/sim"
)

// fleetShape sizes one fleet workload.
type fleetShape struct {
	name      string
	sessions  int     // sessions per round, all on one worker
	teleop    float64 // pedal-down seconds of every session's script
	stagger   int     // admission ticks are drawn from [0, stagger)
	guarded   bool    // cycle guardedMix instead of running none:off
	samples   int     // sessions re-run standalone as the digest oracle
	setupReps int     // set-ups timed on their own, besides each round's
}

var (
	fleetBare    = fleetShape{name: "fleet-bare", sessions: 64, teleop: 4, stagger: 256, samples: 4, setupReps: 5}
	fleetGuarded = fleetShape{name: "fleet-guarded", sessions: 64, teleop: 4, stagger: 256, guarded: true, samples: 4, setupReps: 5}
)

// sessionKind is one attack:guard pairing of a fleet mix.
type sessionKind struct{ attack, guard string }

func (k sessionKind) String() string { return k.attack + ":" + k.guard }

// guardedMix is fleet-guarded's mix, cycled over the sessions. The clean
// guarded half keeps batched prediction running through teleoperation;
// the attacked half drives alarm, rewrite or hold, e-stop and brake
// parking.
var guardedMix = []sessionKind{{"none", "mitigate"}, {"B", "mitigate"}, {"none", "monitor"}, {"A", "holdsafe"}}

// fleetSpecs derives a workload's sessions from the seed: session seeds,
// which session gets which kind of the mix, and admission ticks (the
// earliest is tick 0). Attack parameters are those of internal/fleet's
// benchSpecs.
func fleetSpecs(seed int64, sh fleetShape) []fleet.Spec {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(sh.sessions)
	specs := make([]fleet.Spec, sh.sessions)
	first := sh.stagger
	for i := range specs {
		k := sessionKind{"none", "off"}
		if sh.guarded {
			k = guardedMix[perm[i]%len(guardedMix)]
		}
		sp := fleet.Spec{
			Seed:          1 + rng.Int63n(1<<31),
			TeleopSeconds: sh.teleop,
			Attack:        k.attack,
			Guard:         k.guard,
			StartTick:     rng.Intn(sh.stagger),
		}
		switch k.attack {
		case "B":
			sp.AttackValue, sp.AttackDelay, sp.AttackDuration = 20000, 150, 64
		case "A":
			sp.AttackMagnitude, sp.AttackDelay, sp.AttackDuration = 0.004, 150, 64
		}
		first = min(first, sp.StartTick)
		specs[i] = sp
	}
	for i := range specs {
		specs[i].StartTick -= first
	}
	return specs
}

// oracleSample picks, seed-derived, the sessions re-run standalone: one of
// every kind in the mix first, then others up to n.
func oracleSample(seed int64, specs []fleet.Spec, n int) []int {
	seen := map[sessionKind]bool{}
	var pick, rest []int
	for _, i := range rand.New(rand.NewSource(seed + 1)).Perm(len(specs)) {
		k := sessionKind{specs[i].Attack, specs[i].Guard}
		if seen[k] {
			rest = append(rest, i)
			continue
		}
		seen[k] = true
		pick = append(pick, i)
	}
	for len(pick) < n && len(rest) > 0 {
		pick, rest = append(pick, rest[0]), rest[1:]
	}
	sort.Ints(pick)
	return pick
}

// scriptTicks returns how many control periods a session with the standard
// script of teleop pedal-down seconds runs. The script alone fixes it:
// sessions run to the script's end whatever their attack or guard did.
func scriptTicks(teleop float64) (int, error) {
	s, err := fleet.RunStandalone(fleet.Spec{Seed: 1, TeleopSeconds: teleop})
	if err != nil {
		return 0, err
	}
	return s.Ticks(), nil
}

// ticker is a fleet worker as the round driver sees it: fleet.Worker in
// timed rounds, tracedWorker in traced ones.
type ticker interface {
	Admit(s *fleet.Session) error
	Resident() int
	Tick() error
}

// fleetSetup is one built fleet, ready for its first tick.
type fleetSetup struct {
	worker   ticker
	sessions []*fleet.Session // spec order
	setupNs  float64          // worker construction plus every Spec.Build, pace-adjusted
	buildNs  float64          // the Spec.Build share of setupNs
}

// setUp builds a worker and every session. A reference unit runs after
// each call and states the call's time at the reference pace.
func setUp(specs []fleet.Spec, clock sim.Clock, traced bool) (fleetSetup, error) {
	var su fleetSetup
	a := clock()
	if traced {
		w, err := newTracedWorker(len(specs), clock)
		if err != nil {
			return su, err
		}
		su.worker = w
	} else {
		w, err := fleet.NewWorker(len(specs), nil)
		if err != nil {
			return su, err
		}
		su.worker = w
	}
	b := clock()
	f, end := pace(clock)
	su.setupNs, a = float64(b-a)*f, end
	su.sessions = make([]*fleet.Session, len(specs))
	for i, sp := range specs {
		s, err := sp.Build()
		if err != nil {
			return su, fmt.Errorf("build session %d: %w", i, err)
		}
		su.sessions[i] = s
		b = clock()
		f, end = pace(clock)
		su.buildNs, a = su.buildNs+float64(b-a)*f, end
	}
	su.setupNs += su.buildNs
	return su, nil
}

// liveHeap returns the heap still in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// setUpAndAdmit times one set-up, admits every session, and returns the
// live heap it added per session.
func setUpAndAdmit(specs []fleet.Spec, clock sim.Clock) (su fleetSetup, heapPerSession float64, err error) {
	before := liveHeap()
	su, err = setUp(specs, clock, false)
	if err != nil {
		return su, 0, err
	}
	for i, s := range su.sessions {
		if err := su.worker.Admit(s); err != nil {
			return su, 0, fmt.Errorf("admit session %d: %w", i, err)
		}
	}
	after := liveHeap()
	runtime.KeepAlive(su)
	return su, (float64(after) - float64(before)) / float64(len(specs)), nil
}

// fleetRound is one fleet lifetime: every session from admission to
// retirement.
type fleetRound struct {
	wallNs      int64     // admission to retirement, reference units left out
	lat         []float64 // per-tick latency, ns, in tick order
	latAdj      []float64 // lat at the reference pace
	slotAdj     []float64 // each tick's admissions and Tick, at the reference pace: they sum to the round
	residentSum int64     // resident lanes summed over ticks: the session ticks
	minResident int
	allocs      uint64 // heap allocations over the ticks after the last admission
	allocTicks  int
	sessions    []*fleet.Session
}

// runRound admits each session at its StartTick and ticks the worker until
// every session has retired, timing each Tick. A reference unit after each
// tick states the tick's time at the reference pace. maxTicks bounds the
// round: sessions that outlive their script fail it. countAllocs reads the
// allocation counter around the ticks that follow the last admission.
func runRound(specs []fleet.Spec, su fleetSetup, clock sim.Clock, maxTicks int, countAllocs bool) (fleetRound, error) {
	order := make([]int, len(specs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return specs[order[a]].StartTick < specs[order[b]].StartTick })

	r := fleetRound{
		lat:         make([]float64, 0, maxTicks),
		latAdj:      make([]float64, 0, maxTicks),
		slotAdj:     make([]float64, 0, maxTicks),
		sessions:    su.sessions,
		minResident: math.MaxInt,
	}
	var ms runtime.MemStats
	var mallocs uint64
	next := 0
	var paceNs int64
	start := clock()
	slot := start
	for tick := 0; ; tick++ {
		for next < len(order) && specs[order[next]].StartTick <= tick {
			if err := su.worker.Admit(su.sessions[order[next]]); err != nil {
				return r, fmt.Errorf("admit session %d: %w", order[next], err)
			}
			next++
			if next == len(order) && countAllocs {
				runtime.ReadMemStats(&ms)
				mallocs, r.allocTicks = ms.Mallocs, tick
			}
		}
		n := su.worker.Resident()
		if n == 0 {
			if next == len(order) {
				break
			}
			return r, fmt.Errorf("tick %d: no resident session while %d await admission", tick, len(order)-next)
		}
		if tick >= maxTicks {
			return r, fmt.Errorf("tick %d: %d sessions outlived their script", tick, n)
		}
		a := clock()
		if err := su.worker.Tick(); err != nil {
			return r, fmt.Errorf("tick %d: %w", tick, err)
		}
		b := clock()
		f, end := pace(clock)
		r.lat = append(r.lat, float64(b-a))
		r.latAdj = append(r.latAdj, float64(b-a)*f)
		r.slotAdj = append(r.slotAdj, float64(b-slot)*f)
		paceNs += end - b
		slot = end
		r.residentSum += int64(n)
		r.minResident = min(r.minResident, n)
	}
	r.wallNs = clock() - start - paceNs
	if countAllocs {
		runtime.ReadMemStats(&ms)
		r.allocs, r.allocTicks = ms.Mallocs-mallocs, len(r.lat)-r.allocTicks
	}
	return r, nil
}

// outcomes are a round's guard and safety outcome counts.
type outcomes struct{ alarms, mitigated, held, estops, fbDrops int }

func fleetOutcomes(ss []*fleet.Session) outcomes {
	var o outcomes
	for _, s := range ss {
		if g := s.Guard(); g != nil {
			o.alarms += g.Alarms()
			o.mitigated += g.Mitigated()
			o.held += g.HeldFrames()
		}
		if s.Rig().PLC().EStopped() {
			o.estops++
		}
		o.fbDrops += s.Rig().FaultCounters().FeedbackDrops
	}
	return o
}

// fleetRun is one invocation of a fleet workload.
type fleetRun struct {
	sh     fleetShape
	o      options
	specs  []fleet.Spec
	expect int // ticks every session's script runs
	rep    *report

	ref []*fleet.Session // the first checked round's sessions
}

// maxTicks bounds a round: the last admission plus one script.
func (f *fleetRun) maxTicks() int { return f.sh.stagger + f.expect + 1 }

// roundTicks is the session ticks one round attempts.
func (f *fleetRun) roundTicks() int64 { return int64(f.sh.sessions) * int64(f.expect) }

// check verifies a finished round: every session ran its script's tick
// count, and each digest and the outcome counts equal the first round's.
// A failing session counts its ticks as failed.
func (f *fleetRun) check(label string, ss []*fleet.Session) {
	if f.ref == nil {
		f.ref = ss
	}
	for i, s := range ss {
		switch {
		case s.Ticks() != f.expect:
			f.rep.fail(int64(f.expect), "%s: session %d ran %d ticks, its script runs %d", label, i, s.Ticks(), f.expect)
		case s.Sum() != f.ref[i].Sum():
			f.rep.fail(int64(f.expect), "%s: session %d digest %016x, first round had %016x", label, i, s.Sum(), f.ref[i].Sum())
		}
	}
	if got, want := fleetOutcomes(ss), fleetOutcomes(f.ref); got != want {
		f.rep.fail(f.roundTicks(), "%s: outcomes %+v, first round had %+v", label, got, want)
	}
}

// oracle re-runs the seed-derived sample standalone; each digest must equal
// the fleet run's.
func (f *fleetRun) oracle() {
	if f.ref == nil {
		return
	}
	sample := oracleSample(f.o.seed, f.specs, f.sh.samples)
	for _, i := range sample {
		s, err := fleet.RunStandalone(f.specs[i])
		switch {
		case err != nil:
			f.rep.fail(int64(f.expect), "standalone session %d: %v", i, err)
		case s.Sum() != f.ref[i].Sum():
			f.rep.fail(int64(f.expect), "session %d: fleet digest %016x, standalone %016x", i, f.ref[i].Sum(), s.Sum())
		}
	}
	f.rep.note("digest oracle: sessions %v re-run with fleet.RunStandalone", sample)
}

// round sets up and runs one round, checks it, and counts its attempts and
// failures. ok is false when the round could not finish.
func (f *fleetRun) round(label string, traced, countAllocs bool) (fleetSetup, fleetRound, bool) {
	runtime.GC() // start every round from a collected heap
	f.rep.attempted += f.roundTicks()
	su, err := setUp(f.specs, f.o.clock, traced)
	if err != nil {
		f.rep.fail(f.roundTicks(), "%s: set-up: %v", label, err)
		return su, fleetRound{}, false
	}
	r, err := runRound(f.specs, su, f.o.clock, f.maxTicks(), countAllocs)
	if err != nil {
		f.rep.fail(f.roundTicks(), "%s: %v", label, err)
		return su, r, false
	}
	f.check(label, r.sessions)
	return su, r, true
}

func runFleet(sh fleetShape, o options) (*report, error) {
	f := &fleetRun{sh: sh, o: o, specs: fleetSpecs(o.seed, sh), rep: newReport(sh.name)}
	var err error
	if f.expect, err = scriptTicks(sh.teleop); err != nil {
		return nil, err
	}
	var setups, builds, heaps []float64
	for i := 0; i < sh.setupReps; i++ {
		su, heap, err := setUpAndAdmit(f.specs, o.clock)
		if err != nil {
			return nil, err
		}
		setups = append(setups, su.setupNs)
		builds = append(builds, su.buildNs)
		heaps = append(heaps, heap)
	}
	f.rep.set("build.ms_per_session", median(builds)/1e6/float64(sh.sessions),
		"Spec.Build of %d sessions, pace-adjusted; median of %d set-ups", sh.sessions, len(builds))

	deadline := o.clock() + int64(o.seconds*1e9)
	if o.trace {
		f.traced(deadline)
	} else {
		f.timed(deadline, setups, heaps)
	}
	f.oracle()
	kinds := map[string]int{}
	for _, sp := range f.specs {
		kinds[sessionKind{sp.Attack, sp.Guard}.String()]++
	}
	f.rep.note("seed %d: %d sessions, mix %v, teleop %g s (%d ticks each), admission over %d ticks",
		o.seed, sh.sessions, kinds, sh.teleop, f.expect, sh.stagger)
	return f.rep, nil
}

// roundsPerGroup is how many consecutive rounds each tick's
// least-disturbed time is taken over. It is fixed, so the minimum's bias
// does not move with how many rounds fit in a run.
const roundsPerGroup = 3

// leastDisturbed reduces a group of rounds, which run the same ticks, to
// each tick's least pace-adjusted time over the group.
func leastDisturbed(group []fleetRound) (lat, slot []float64) {
	lat = append([]float64(nil), group[0].latAdj...)
	slot = append([]float64(nil), group[0].slotAdj...)
	for _, r := range group[1:] {
		for k := range lat {
			lat[k] = min(lat[k], r.latAdj[k])
			slot[k] = min(slot[k], r.slotAdj[k])
		}
	}
	return lat, slot
}

// timed runs untraced rounds until the next would pass the deadline and
// sets the end-to-end metrics (README.md, "Pace adjustment"). Every tick is
// pace-adjusted; each group of roundsPerGroup consecutive rounds (groups
// overlap, one starting at every round) gives each tick its
// least-disturbed time, and every figure is the median over the groups.
func (f *fleetRun) timed(deadline int64, setups, heaps []float64) {
	var rounds []fleetRound
	ticks, over, minRes := 0, 0, math.MaxInt
	var resident []float64
	var lastWall int64
	for i := 0; i == 0 || f.o.clock()+lastWall <= deadline; i++ {
		su, r, ok := f.round(fmt.Sprintf("round %d", i), false, false)
		if !ok {
			break
		}
		setups = append(setups, su.setupNs)
		lastWall = r.wallNs
		if len(rounds) > 0 && len(r.lat) != ticks {
			f.rep.fail(f.roundTicks(), "round %d: %d ticks, round 0 ran %d", i, len(r.lat), ticks)
			continue
		}
		ticks = len(r.lat)
		rounds = append(rounds, r)
		for _, ns := range r.lat {
			if ns >= 1e6 {
				over++
			}
		}
		resident = append(resident, ratio(float64(r.residentSum), float64(len(r.lat))))
		minRes = min(minRes, r.minResident)
	}
	var spc, tps, p50, p99, tails []float64
	tail, _ := tailPercentile(ticks)
	for g := 0; g == 0 || g+roundsPerGroup <= len(rounds); g++ {
		group := rounds[g:min(g+roundsPerGroup, len(rounds))]
		if len(group) == 0 {
			break
		}
		lat, slot := leastDisturbed(group)
		var wall float64
		for _, ns := range slot {
			wall += ns
		}
		wall /= 1e9
		spc = append(spc, float64(group[0].residentSum)/wall/1000)
		tps = append(tps, float64(len(group[0].sessions))/wall)
		lat = sorted(lat)
		p50 = append(p50, quantile(lat, 50)/1e3)
		p99 = append(p99, quantile(lat, 99)/1e3)
		tails = append(tails, quantile(lat, tail)/1e3)
	}
	n, groups := len(rounds), len(spc)
	f.rep.set("sessions_per_core", median(spc),
		"session ticks / wall s / 1000 / 1 worker, wall summed over least-disturbed tick slots; median of %d groups of %d consecutive rounds, of %d rounds run", groups, min(roundsPerGroup, n), n)
	f.rep.set("tick_p50_us", median(p50),
		"Worker.Tick wall time p50 over %d least-disturbed ticks; median of %d groups", ticks, groups)
	f.rep.set("tick_p99_us", median(p99),
		"p99 over %d least-disturbed ticks (highest supported: p%g, %.1f us); median of %d groups; %d ticks of %d rounds over the 1000 us budget, unadjusted",
		ticks, tail, median(tails), groups, over, n)
	f.rep.set("heap_kb_per_session", median(heaps)/1024,
		"live heap after build+admit minus before, / %d sessions; median of %d set-ups", f.sh.sessions, len(heaps))
	f.rep.set("trials_per_s", median(tps),
		"sessions run admission to retirement / wall s, wall as for sessions_per_core; median of %d groups", groups)
	f.rep.set("setup_s", median(setups)/1e9,
		"fleet.NewWorker + %d Spec.Build, each call pace-adjusted; median of %d set-ups", f.sh.sessions, len(setups))
	f.rep.note("per-group sessions_per_core: %.1f", spc)
	f.rep.note("per-group tick_p99_us: %.1f", p99)
	f.rep.note("resident lanes per tick: mean %.1f (median over rounds), min %d", median(resident), minRes)
	f.noteOutcomes()
}

// traced alternates untraced and traced rounds, pair by pair, until the
// next pair would pass the deadline, and sets the per-layer metrics.
func (f *fleetRun) traced(deadline int64) {
	var tr stageTrace
	var untracedWall, tracedWall []float64
	var allocs uint64
	var allocTicks int
	var lastPair int64
	for pair := 0; pair == 0 || f.o.clock()+lastPair <= deadline; pair++ {
		start := f.o.clock()
		for k := 0; k < 2; k++ {
			traced := (pair+k)%2 == 1 // untraced first in even pairs
			label := fmt.Sprintf("pair %d untraced", pair)
			if traced {
				label = fmt.Sprintf("pair %d traced", pair)
			}
			su, r, ok := f.round(label, traced, !traced)
			if !ok {
				f.rep.note("tracing stopped at %s", label)
				f.tracedMetrics(tr, untracedWall, tracedWall, allocs, allocTicks)
				return
			}
			if !traced {
				untracedWall = append(untracedWall, float64(r.wallNs))
				allocs += r.allocs
				allocTicks += r.allocTicks
				continue
			}
			tracedWall = append(tracedWall, float64(r.wallNs))
			w := su.worker.(*tracedWorker)
			w.tr.tickNs = 0
			for _, ns := range r.lat {
				w.tr.tickNs += int64(ns)
			}
			tr.add(w.tr)
		}
		lastPair = f.o.clock() - start
	}
	f.tracedMetrics(tr, untracedWall, tracedWall, allocs, allocTicks)
}

func (f *fleetRun) tracedMetrics(tr stageTrace, untracedWall, tracedWall []float64, allocs uint64, allocTicks int) {
	tr.report(f.rep)
	f.rep.set("allocs_per_tick", ratio(float64(allocs), float64(allocTicks)),
		"%d heap allocations over %d Worker.Tick calls after the last admission", allocs, allocTicks)
	u, t := median(untracedWall), median(tracedWall)
	f.rep.set("trace.overhead_ratio", ratio(t-u, u),
		"traced wall %.3f s minus untraced wall %.3f s (medians of %d and %d rounds), over the untraced", t/1e9, u/1e9, len(tracedWall), len(untracedWall))
	f.noteOutcomes()
}

// noteOutcomes reports the first round's outcome counts, which every later
// round repeated.
func (f *fleetRun) noteOutcomes() {
	if f.ref == nil {
		return
	}
	o := fleetOutcomes(f.ref)
	f.rep.note("outcomes per round: alarms %d, mitigated %d, held_frames %d, estops %d, feedback_drops %d",
		o.alarms, o.mitigated, o.held, o.estops, o.fbDrops)
	for _, m := range []struct {
		name string
		v    int
	}{{"alarms", o.alarms}, {"mitigated", o.mitigated}, {"held_frames", o.held}, {"estops", o.estops}, {"feedback_drops", o.fbDrops}} {
		f.rep.set(m.name, float64(m.v), "per round of %d sessions, equal in every round", f.sh.sessions)
	}
}
