// Command ravenbench is RavenGuard's benchmark. It runs one workload —
// a fleet of concurrent 1 kHz sessions on one worker, or a cold
// mitigation-sweep campaign — times it from outside each call it makes
// into the program, checks every output against an independent oracle,
// and prints one JSON result as its last line of standard output.
//
//	ravenbench --workload fleet-bare --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the
// stage-traced tick driver (fleets) or the job-split shard run
// (campaign) and reports the per-layer metrics. README.md describes the
// workloads, the metrics and how to compare two commits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"

	"ravenguard/internal/sim"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a --trace 0 run reports, on every workload.
var endToEnd = []metricDef{
	{"sessions_per_core", "sessions"},
	{"tick_p50_us", "us"},
	{"tick_p99_us", "us"},
	{"heap_kb_per_session", "KiB"},
	{"trials_per_s", "trials/s"},
	{"setup_s", "s"},
}

// perLayer are the metrics a --trace 1 run reports. Fleet stage metrics
// read 0 on the campaign and campaign metrics read 0 on the fleets: the
// workload never enters those layers through the timed boundary.
var perLayer = []metricDef{
	{"command.ns_per_session_tick", "ns"},
	{"guard.pack_ns_per_tick", "ns"},
	{"guard.sweep_ns_per_lane", "ns"},
	{"guard.absorb_ns_per_prediction", "ns"},
	{"guard.predictions_per_tick", "count"},
	{"guard.share", "ratio"},
	{"supervise.ns_per_session_tick", "ns"},
	{"reconcile.ns_per_tick", "ns"},
	{"reconcile.swaps_per_tick", "count"},
	{"dacs.ns_per_session_tick", "ns"},
	{"plant.ns_per_active_lane", "ns"},
	{"plant.active_ratio", "ratio"},
	{"finish.ns_per_session_tick", "ns"},
	{"retire.ns_per_tick", "ns"},
	{"tick.unaccounted_ns", "ns"},
	{"tick.resident_lanes", "count"},
	{"build.ms_per_session", "ms"},
	{"allocs_per_tick", "count"},
	{"alarms", "count"},
	{"mitigated", "count"},
	{"held_frames", "count"},
	{"estops", "count"},
	{"feedback_drops", "count"},
	{"job.ms_p50", "ms"},
	{"job.ms_max", "ms"},
	{"merge.us_per_partial", "us"},
	{"finalize.ms", "ms"},
	{"pool.busy_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// options are one invocation's settings.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	clock   sim.Clock
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*report, error){
	"fleet-bare":          func(o options) (*report, error) { return runFleet(fleetBare, o) },
	"fleet-guarded":       func(o options) (*report, error) { return runFleet(fleetGuarded, o) },
	"campaign-mitigation": func(o options) (*report, error) { return runCampaign(campaignMitigation, o) },
}

func main() {
	runtime.LockOSThread() // fleet workers tick on the main goroutine
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ravenbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fleet-bare, fleet-guarded or campaign-mitigation")
	seed := fs.Int64("seed", 1, "workload seed: session seeds, attack mix, stagger, campaign base seed")
	seconds := fs.Float64("seconds", 30, "measured time per run, seconds")
	trace := fs.Int("trace", 0, "1 runs the traced driver and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "ravenbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	rep, err := runner(options{seed: *seed, seconds: *seconds, trace: *trace == 1, clock: sim.WallClock})
	if err != nil {
		fmt.Fprintln(stderr, "ravenbench:", err)
		return 1
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	if err := rep.write(stdout, defs); err != nil {
		fmt.Fprintln(stderr, "ravenbench:", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// report collects one run's metrics, the human-readable lines explaining
// them, and the failure accounting.
type report struct {
	workload  string
	values    map[string]float64
	details   map[string]string
	notes     []string
	problems  []string
	attempted int64 // session ticks (fleets) or trials (campaign)
	failed    int64
}

func newReport(workload string) *report {
	return &report{workload: workload, values: map[string]float64{}, details: map[string]string{}}
}

// set records a metric with the samples and base it was computed from.
func (r *report) set(name string, v float64, detail string, args ...any) {
	r.values[name] = v
	r.details[name] = fmt.Sprintf(detail, args...)
}

// note adds an informational line.
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail counts ops failed operations and records why.
func (r *report) fail(ops int64, format string, args ...any) {
	r.failed += ops
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// write prints one line per metric of defs, the notes and problems, then
// the JSON result. A metric of defs the workload did not measure reads 0
// and says so.
func (r *report) write(w io.Writer, defs []metricDef) error {
	res := result{
		Correct:   r.failed == 0 && len(r.problems) == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	fmt.Fprintf(w, "workload %s\n", r.workload)
	for _, d := range defs {
		v, ok := r.values[d.name]
		detail := r.details[d.name]
		if !ok {
			detail = "not exercised by " + r.workload
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "%-32s %14.6g %-8s %s\n", d.name, v, d.unit, detail)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "  "+n)
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "FAIL: "+p)
	}
	fmt.Fprintf(w, "attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
