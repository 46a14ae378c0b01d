package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ravenguard/internal/experiment"
)

// campaignShape sizes the campaign workload.
type campaignShape struct {
	name       string
	attacks    int     // attack indices: the sweep's job space
	values     []int16 // scenario-B injection values swept
	teleop     float64 // pedal-down seconds of a campaign trial's script
	setupReps  int     // timed batches of set-ups before each sweep
	setupBatch int     // set-ups per timed batch
}

// campaignMitigation sweeps every value × arm × attack. teleop is
// experiment.Trial's default.
var campaignMitigation = campaignShape{
	name:       "campaign-mitigation",
	attacks:    4,
	values:     []int16{12000, 16000, 20000},
	teleop:     5,
	setupReps:  10,
	setupBatch: 100,
}

// campaignRun is one invocation of the campaign workload.
type campaignRun struct {
	sh      campaignShape
	o       options
	cfg     experiment.MitigationConfig
	workers int
	trials  int // simulated sessions per sweep
	rep     *report

	ref []string // the first checked sweep's rendering, one block per value
}

// shardSink keeps timed set-ups from being optimised away.
var shardSink experiment.CampaignShard

func newCampaignRun(sh campaignShape, o options) *campaignRun {
	c := &campaignRun{
		sh:      sh,
		o:       o,
		cfg:     experiment.MitigationConfig{Attacks: sh.attacks, BaseSeed: rand.New(rand.NewSource(o.seed)).Int63n(1 << 20)},
		workers: min(2, runtime.NumCPU()),
		rep:     newReport(sh.name),
	}
	shard := experiment.MitigationShard(sh.values, c.cfg)
	c.trials = shard.Jobs * shard.TrialsPerJob
	return c
}

// setUp times what a campaign invocation builds before it simulates: the
// pool size, the config and the shard adapter. It appends the seconds per
// set-up of each timed batch, stated at the reference pace by a reference
// unit run after the batch.
func (c *campaignRun) setUp(perSetup []float64) []float64 {
	runtime.GC()
	for b := 0; b < c.sh.setupReps; b++ {
		start := c.o.clock()
		for k := 0; k < c.sh.setupBatch; k++ {
			experiment.SetWorkers(c.workers)
			cfg := experiment.MitigationConfig{Attacks: c.sh.attacks, BaseSeed: c.cfg.BaseSeed}
			shardSink = experiment.MitigationShard(c.sh.values, cfg)
		}
		ns := c.o.clock() - start
		f, _ := pace(c.o.clock)
		perSetup = append(perSetup, float64(ns)*f/float64(c.sh.setupBatch)/1e9)
	}
	return perSetup
}

// render writes each value's comparison as its own block.
func render(res []experiment.MitigationResult) []string {
	blocks := make([]string, len(res))
	for i, r := range res {
		var b strings.Builder
		r.Write(&b)
		blocks[i] = b.String()
	}
	return blocks
}

// sweep runs the end-to-end sweep with a cold reference cache, as a fresh
// labrunner invocation would, and returns its wall time, the live heap it
// left per trial (the reference cache and results), and its rendering.
func (c *campaignRun) sweep() (wallNs int64, heapPerTrial float64, blocks []string, err error) {
	experiment.SetWorkers(c.workers)
	experiment.ResetReferenceCache()
	before := liveHeap()
	start := c.o.clock()
	res, err := experiment.RunMitigationSweep(c.sh.values, c.cfg)
	wallNs = c.o.clock() - start
	if err != nil {
		return wallNs, 0, nil, err
	}
	after := liveHeap()
	runtime.KeepAlive(res)
	return wallNs, (float64(after) - float64(before)) / float64(c.trials), render(res), nil
}

// sweepPaceExponent is how strongly a sweep's wall time follows the
// reference kernel's pace: on the defining box, the log-log slope of sweep
// time on unit time was 0.52 to 0.53 (README.md, "Pace adjustment").
const sweepPaceExponent = 0.5

// pacedSweep runs sweep with reference units alongside, one every
// millisecond, and returns the factor that states its wall time at the
// reference pace. The units take about 0.5% of the pool's time.
func (c *campaignRun) pacedSweep() (wallNs int64, factor, heapPerTrial float64, blocks []string, err error) {
	stop := paceAlongside(time.Millisecond, c.o.clock)
	wallNs, heapPerTrial, blocks, err = c.sweep()
	f, _ := stop()
	return wallNs, math.Pow(f, sweepPaceExponent), heapPerTrial, blocks, err
}

// shardTrace is one job-split run's timings.
type shardTrace struct {
	jobNs      []int64 // per attack index
	mergeNs    int64   // over merges
	merges     int
	finalizeNs int64
	busy       float64 // Σ job time / (pool wall × workers)
	wallNs     int64   // jobs, merges and finalize
}

// sharded runs the sweep job by job — RunMitigationSweepRange(i, i+1)
// through the shard adapter, one attack index per job, on a pool of
// c.workers goroutines — then merges the partials in index order and
// finalizes, timing every call. The reference cache starts cold.
func (c *campaignRun) sharded() (shardTrace, []string, error) {
	experiment.SetWorkers(1) // the benchmark's own goroutines are the pool
	defer experiment.SetWorkers(c.workers)
	experiment.ResetReferenceCache()
	shard := experiment.MitigationShard(c.sh.values, c.cfg)
	t := shardTrace{jobNs: make([]int64, shard.Jobs)}
	parts := make([]json.RawMessage, shard.Jobs)
	errs := make([]error, shard.Jobs)

	start := c.o.clock()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < c.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < shard.Jobs; i = int(next.Add(1) - 1) {
				a := c.o.clock()
				parts[i], errs[i] = shard.RunRange(i, i+1)
				t.jobNs[i] = c.o.clock() - a
			}
		}()
	}
	wg.Wait()
	poolNs := c.o.clock() - start
	for i, err := range errs {
		if err != nil {
			return t, nil, fmt.Errorf("job %d: %w", i, err)
		}
	}
	var jobSum int64
	for _, ns := range t.jobNs {
		jobSum += ns
	}
	t.busy = ratio(float64(jobSum), float64(poolNs)*float64(c.workers))

	full := parts[0]
	for _, p := range parts[1:] {
		a := c.o.clock()
		merged, err := shard.Merge(full, p)
		t.mergeNs += c.o.clock() - a
		if err != nil {
			return t, nil, err
		}
		full = merged
		t.merges++
	}
	var partial experiment.MitigationPartial
	if err := json.Unmarshal(full, &partial); err != nil {
		return t, nil, fmt.Errorf("decode merged partial: %w", err)
	}
	a := c.o.clock()
	res, err := experiment.FinalizeMitigationSweep(c.cfg, partial)
	t.finalizeNs = c.o.clock() - a
	t.wallNs = c.o.clock() - start
	if err != nil {
		return t, nil, err
	}
	return t, render(res), nil
}

// check compares a rendering with the first one; a mismatch fails the
// sweep's trials.
func (c *campaignRun) check(label string, blocks []string) {
	if c.ref == nil {
		c.ref = blocks
	}
	for i := range c.ref {
		if i >= len(blocks) || blocks[i] != c.ref[i] {
			c.rep.fail(int64(c.trials), "%s: value %d renders differently from the first sweep", label, c.sh.values[i])
			return
		}
	}
}

// comparison renders RunMitigationComparison — the independent scalar path
// — for one seed-derived value; it must equal that value's sweep block.
func (c *campaignRun) comparison() {
	if c.ref == nil {
		return
	}
	vi := rand.New(rand.NewSource(c.o.seed + 1)).Intn(len(c.sh.values))
	cfg := c.cfg
	cfg.Value = c.sh.values[vi]
	experiment.SetWorkers(c.workers)
	res, err := experiment.RunMitigationComparison(cfg)
	perValue := int64(c.trials / len(c.sh.values))
	switch {
	case err != nil:
		c.rep.fail(perValue, "RunMitigationComparison(%d): %v", cfg.Value, err)
	case render([]experiment.MitigationResult{res})[0] != c.ref[vi]:
		c.rep.fail(perValue, "RunMitigationComparison(%d) renders differently from the sweep", cfg.Value)
	}
	c.rep.note("comparison oracle: RunMitigationComparison at value %d", cfg.Value)
}

func runCampaign(sh campaignShape, o options) (*report, error) {
	c := newCampaignRun(sh, o)
	ticks, err := scriptTicks(sh.teleop)
	if err != nil {
		return nil, err
	}
	deadline := o.clock() + int64(o.seconds*1e9)
	if o.trace {
		c.traced(deadline)
	} else {
		c.timed(deadline, ticks)
	}
	c.comparison()
	c.rep.note("seed %d: base seed %d, values %v x 3 arms x %d attacks = %d trials of %d ticks, %d workers",
		o.seed, c.cfg.BaseSeed, sh.values, sh.attacks, c.trials, ticks, c.workers)
	return c.rep, nil
}

// timed runs cold sweeps until the next would pass the deadline and sets
// the end-to-end metrics: each sweep's figures, pace-adjusted, and the
// median over sweeps (README.md, "Pace adjustment").
func (c *campaignRun) timed(deadline int64, ticks int) {
	var tps, spc, tickUs, heaps, setups, factors []float64
	var lastWall int64
	for i := 0; i == 0 || c.o.clock()+lastWall <= deadline; i++ {
		c.rep.attempted += int64(c.trials)
		setups = c.setUp(setups)
		start := c.o.clock()
		wallNs, factor, heap, blocks, err := c.pacedSweep()
		if err != nil {
			c.rep.fail(int64(c.trials), "sweep %d: %v", i, err)
			break
		}
		c.check(fmt.Sprintf("sweep %d", i), blocks)
		lastWall = c.o.clock() - start
		wall := float64(wallNs) * factor / 1e9
		tps = append(tps, float64(c.trials)/wall)
		spc = append(spc, float64(c.trials)*float64(ticks)/wall/1000/float64(c.workers))
		tickUs = append(tickUs, wall*1e6/float64(ticks))
		heaps = append(heaps, heap)
		factors = append(factors, factor)
	}
	n := len(tps)
	c.rep.set("sessions_per_core", median(spc),
		"%d trials x %d ticks / wall s / 1000 / %d workers, pace-adjusted; median of %d sweeps", c.trials, ticks, c.workers, n)
	c.rep.set("tick_p50_us", median(tickUs),
		"sweep wall / %d control periods: every trial advanced one period, pace-adjusted; median of %d sweeps", ticks, n)
	c.rep.set("tick_p99_us", median(tickUs),
		"equal to tick_p50_us: a sweep's periods are timed only together, so each sweep has one tick time")
	c.rep.set("heap_kb_per_session", median(heaps)/1024,
		"live heap after the sweep minus before, / %d trials; median of %d sweeps", c.trials, n)
	c.rep.set("trials_per_s", median(tps), "%d trials / sweep wall s, pace-adjusted; median of %d cold sweeps",
		c.trials, n)
	c.rep.set("setup_s", median(setups),
		"SetWorkers + MitigationConfig + MitigationShard, pace-adjusted; median of %d batches of %d, %d before each sweep",
		len(setups), c.sh.setupBatch, c.sh.setupReps)
	c.rep.note("per-sweep trials_per_s: %.2f", tps)
	c.rep.note("per-sweep pace factor: %.3f", factors)
}

// traced alternates end-to-end and job-split sweeps, pair by pair, until
// the next pair would pass the deadline, and sets the per-layer metrics.
func (c *campaignRun) traced(deadline int64) {
	var jobMs, finalizeMs, busy, untracedWall, tracedWall []float64
	var mergeNs int64
	var merges int
	var lastPair int64
	for pair := 0; pair == 0 || c.o.clock()+lastPair <= deadline; pair++ {
		start := c.o.clock()
		for k := 0; k < 2; k++ {
			c.rep.attempted += int64(c.trials)
			if (pair+k)%2 == 0 { // end-to-end first in even pairs
				wallNs, _, blocks, err := c.sweep()
				if err != nil {
					c.rep.fail(int64(c.trials), "pair %d sweep: %v", pair, err)
					continue
				}
				c.check(fmt.Sprintf("pair %d sweep", pair), blocks)
				untracedWall = append(untracedWall, float64(wallNs))
				continue
			}
			t, blocks, err := c.sharded()
			if err != nil {
				c.rep.fail(int64(c.trials), "pair %d job-split sweep: %v", pair, err)
				continue
			}
			c.check(fmt.Sprintf("pair %d job-split sweep", pair), blocks)
			for _, ns := range t.jobNs {
				jobMs = append(jobMs, float64(ns)/1e6)
			}
			mergeNs += t.mergeNs
			merges += t.merges
			finalizeMs = append(finalizeMs, float64(t.finalizeNs)/1e6)
			busy = append(busy, t.busy)
			tracedWall = append(tracedWall, float64(t.wallNs))
		}
		lastPair = c.o.clock() - start
	}
	jobs := sorted(jobMs)
	c.rep.set("job.ms_p50", quantile(jobs, 50), "one attack index (every arm x value); %d jobs", len(jobs))
	c.rep.set("job.ms_max", quantile(jobs, 100), "slowest of %d jobs", len(jobs))
	c.rep.set("merge.us_per_partial", ratio(float64(mergeNs)/1e3, float64(merges)), "MitigationShard.Merge; %d merges", merges)
	c.rep.set("finalize.ms", median(finalizeMs), "FinalizeMitigationSweep; median of %d", len(finalizeMs))
	c.rep.set("pool.busy_ratio", median(busy), "sum of job time / (pool wall x %d workers); median of %d sweeps", c.workers, len(busy))
	u, t := median(untracedWall), median(tracedWall)
	c.rep.set("trace.overhead_ratio", ratio(t-u, u),
		"job-split wall %.3f s minus end-to-end wall %.3f s (medians of %d and %d sweeps), over the end-to-end", t/1e9, u/1e9, len(tracedWall), len(untracedWall))
}
