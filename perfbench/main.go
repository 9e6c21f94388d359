// Command perfbench is the simulator's benchmark. It runs one named
// workload against the simulated storage stack and reports two kinds of
// cost: the host cost of running the simulator (set-up time, operations
// per host second, allocations, memory) and the virtual latency of the
// storage it models. It checks the simulated outputs as it goes.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload scan|replay|fleet --seed N --seconds S --trace 0|1
//
// A run repeats passes until S host seconds have gone by. A pass sets up
// a fresh simulated system from the seed (timed as set-up) and runs the
// workload's fixed operation sequence on it (timed as the measured
// phase), so every pass does the same simulated work and yields the same
// virtual results. With --trace 0 the run reports the end-to-end metrics.
// With --trace 1 every other pass runs with probes interposed at the
// layers' seams; the run checks that traced and untraced passes simulated
// exactly the same thing, reports the per-layer metrics, and writes the
// first traced pass's spans under --spans-dir.
//
// The last line of standard output is one JSON object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
// A wrong simulated output prints correct=false and exits 1; an error
// exits 1 without a result.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
)

// passResult is what one pass of a workload simulated.
type passResult struct {
	ops, failed int
	vread       []float64 // virtual latency of each read op, ms, in op order
	vwrite      []float64 // virtual latency of each write op, ms, in op order
	vmakespanS  float64   // first arrival to last completion, virtual s
	events      uint64    // engine events (0 for workloads without an engine)

	engineNS     int64  // host ns inside Engine.Run
	engineAllocs uint64 // heap allocations inside Engine.Run

	// layer holds per-layer metrics read from the program's own
	// statistics (cache, vfs, memo, fleet and fault counters).
	layer map[string]float64
}

// fingerprint hashes everything a pass simulated: a change of any
// virtual latency, failure or event count changes it.
func (r *passResult) fingerprint() uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(x uint64) {
		for i := range b {
			b[i] = byte(x >> (8 * i))
		}
		h.Write(b[:])
	}
	put(uint64(r.ops))
	put(uint64(r.failed))
	put(r.events)
	put(math.Float64bits(r.vmakespanS))
	for _, v := range r.vread {
		put(math.Float64bits(v))
	}
	put(uint64(len(r.vwrite)))
	for _, v := range r.vwrite {
		put(math.Float64bits(v))
	}
	return h.Sum64()
}

// instance is one freshly set-up simulated system, ready to run a pass.
type instance interface {
	run() (passResult, error)
}

// benchWorkload builds instances of one workload from inputs fixed at
// preparation. p is nil for an untraced pass; otherwise setup interposes
// p's wrappers.
type benchWorkload interface {
	setup(p *probes) (instance, error)
}

// workloads maps each workload name to its preparation from the seed.
var workloads = []struct {
	name    string
	prepare func(seed uint64) (benchWorkload, error)
}{
	{"scan", prepareScan},
	{"replay", prepareReplay},
	{"fleet", prepareFleet},
}

// mismatchError reports a simulated output that differs from the
// benchmark's independent computation of it.
type mismatchError struct{ msg string }

func (e *mismatchError) Error() string { return "output check failed: " + e.msg }

func mismatchf(format string, args ...any) error {
	return &mismatchError{msg: fmt.Sprintf(format, args...)}
}

// passStat is what a run keeps of one pass: timings and counts, and for
// a traced pass its per-layer metrics. Latency samples and spans are
// reduced and dropped as the pass ends, so the memory the benchmark holds
// does not grow with the length of the run.
type passStat struct {
	setupNS, runNS     int64
	allocs, allocBytes uint64
	ops, failed        int
	events             uint64
	engineNS           int64
	engineAllocs       uint64
	layers             map[string]float64 // nil for an untraced pass
}

// passes is what runPasses returns.
type passes struct {
	stats []passStat
	first passResult // the first pass in full; every pass simulated the same
	spans []span     // the first traced pass's spans
}

// runPasses runs passes until budgetNS host nanoseconds have passed and
// at least minPasses have run. With alternate set, every other pass is
// traced (the first is not), so traced and untraced passes see the same
// host conditions. Every pass must simulate exactly what the first did:
// probes may cost host time, never change virtual behaviour.
func runPasses(w benchWorkload, alternate bool, budgetNS int64, minPasses int) (passes, error) {
	var out passes
	var want uint64
	start := nowNS()
	for len(out.stats) < minPasses || nowNS()-start < budgetNS {
		n := len(out.stats)
		var p *probes
		if alternate && n%2 == 1 {
			p = newProbes()
		}
		// Collect the previous pass's garbage outside the timed phases, so
		// each phase pays only for the collections its own allocations
		// cause.
		runtime.GC()
		t0 := nowNS()
		inst, err := w.setup(p)
		t1 := nowNS()
		if err != nil {
			return out, fmt.Errorf("setup: %w", err)
		}
		if p != nil {
			p.clear() // set-up work is not part of the pass
		}
		runtime.GC()
		a0 := readAllocs()
		t2 := nowNS()
		res, err := inst.run()
		t3 := nowNS()
		a1 := readAllocs()
		if err != nil {
			return out, err
		}
		if res.ops < 1 {
			return out, errors.New("pass ran no operations")
		}
		fp := res.fingerprint()
		if n == 0 {
			want, out.first = fp, res
		}
		if fp != want {
			return out, mismatchf("pass %d (traced=%v) simulated differently from the first pass", n, p != nil)
		}
		s := passStat{
			setupNS: t1 - t0, runNS: t3 - t2,
			allocs: a1.mallocs - a0.mallocs, allocBytes: a1.bytes - a0.bytes,
			ops: res.ops, failed: res.failed, events: res.events,
			engineNS: res.engineNS, engineAllocs: res.engineAllocs,
		}
		if p != nil {
			s.layers = tracedPassMetrics(&res, p)
			if out.spans == nil {
				out.spans = p.tr.spans
			}
		}
		out.stats = append(out.stats, s)
	}
	return out, nil
}

// medianOf returns the median over passes of f.
func medianOf(ps []passStat, f func(*passStat) float64) float64 {
	xs := make([]float64, len(ps))
	for i := range ps {
		xs[i] = f(&ps[i])
	}
	return median(xs)
}

// opsPerSec is the operations completed per host second over the
// passes' measured phases. The host's speed comes and goes in spells
// of seconds; this total moves smoothly with their share of the run,
// where a median over passes would jump between the fast and the slow
// passes' rates.
func opsPerSec(ps []passStat) float64 {
	var ops, ns float64
	for _, s := range ps {
		ops += float64(s.ops)
		ns += float64(s.runNS)
	}
	return ops / (ns / 1e9)
}

// vtimes returns the median and the tail percentile of virtual
// latencies, requiring the tail to be at least p99.
func vtimes(name string, lat []float64) (p50, p99 float64, err error) {
	if tail, ok := tailPercentile(len(lat)); !ok || tail < 99 {
		return 0, 0, fmt.Errorf("%s: %d samples leave fewer than %d beyond p99", name, len(lat), minTail)
	}
	s := sortedCopy(lat)
	return percentile(s, 50), percentile(s, 99), nil
}

// endToEndMetrics reduces an untraced run to the end-to-end metrics.
func endToEndMetrics(ps passes) (map[string]float64, error) {
	p50, p99, err := vtimes("vread", ps.first.vread)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	st := ps.stats
	return map[string]float64{
		"setup_s":            medianOf(st, func(s *passStat) float64 { return float64(s.setupNS) / 1e9 }),
		"ops_per_s":          opsPerSec(st),
		"allocs_per_op":      medianOf(st, func(s *passStat) float64 { return float64(s.allocs) / float64(s.ops) }),
		"alloc_bytes_per_op": medianOf(st, func(s *passStat) float64 { return float64(s.allocBytes) / float64(s.ops) }),
		"peak_rss_mb":        rss,
		"vread_p50_ms":       p50,
		"vread_p99_ms":       p99,
		"vmakespan_s":        ps.first.vmakespanS,
	}, nil
}

// tracedPassMetrics computes the per-layer metrics of one traced pass.
func tracedPassMetrics(res *passResult, p *probes) map[string]float64 {
	tot := totals(p.tr.spans)
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	m := map[string]float64{
		"workload.pages":   float64(p.pages),
		"workload.host_s":  sec(tot[layerPageGen].hostNS),
		"apps.calls":       float64(tot[layerApps].calls),
		"apps.host_s":      sec(tot[layerApps].hostNS),
		"apps.self_host_s": sec(tot[layerApps].selfNS),

		"core.query_calls":  float64(tot[layerQuery].calls),
		"core.query_host_s": sec(tot[layerQuery].hostNS),
		"core.load_samples": float64(p.loadSamples),
		"core.load_host_s":  sec(tot[layerLoad].hostNS),

		"device.reads":   float64(p.devReads),
		"device.writes":  float64(p.devWrites),
		"device.bytes":   float64(p.devBytes),
		"device.vbusy_s": p.devVBusy.Seconds(),
		"device.host_s":  sec(tot[layerDevice].hostNS),

		"iosched.events":          float64(res.events),
		"iosched.run_host_s":      sec(tot[layerEngine].hostNS),
		"iosched.self_host_s":     sec(tot[layerEngine].selfNS),
		"iosched.sched_calls":     float64(p.schedCalls),
		"iosched.sched_host_s":    sec(tot[layerSched].hostNS),
		"iosched.max_queue_depth": float64(p.maxDepth),

		"fleet.step_host_s": sec(tot[layerFleetStep].hostNS),

		"fail_frac":            ratio(float64(res.failed), float64(res.ops)),
		"bench.ops_per_pass":   float64(res.ops),
		"bench.vread_samples":  float64(len(res.vread)),
		"bench.vwrite_samples": float64(len(res.vwrite)),
	}
	if tail, ok := tailPercentile(len(res.vread)); ok {
		m["bench.vread_tail_pct"] = tail
	}
	if len(p.queueWaits) > 0 {
		w := sortedCopy(p.queueWaits)
		m["iosched.vqueue_wait_p50_ms"] = percentile(w, 50)
		m["iosched.vqueue_wait_p99_ms"] = percentile(w, 99)
	}
	if len(res.vwrite) > 0 {
		w := sortedCopy(res.vwrite)
		m["vwrite_p50_ms"] = percentile(w, 50)
		m["vwrite_p99_ms"] = percentile(w, 99)
	}
	for _, d := range perLayer {
		if v, ok := res.layer[d.name]; ok {
			m[d.name] = v
		}
	}
	return m
}

// perLayerMetrics reduces a traced run: each metric is its median over
// the traced passes, except that the untraced passes give the engine's
// tracing-free rates and the baseline of the tracing overhead.
func perLayerMetrics(ps passes) map[string]float64 {
	var plain, traced []passStat
	for _, s := range ps.stats {
		if s.layers == nil {
			plain = append(plain, s)
		} else {
			traced = append(traced, s)
		}
	}
	out := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		xs := make([]float64, len(traced))
		for i, s := range traced {
			xs[i] = s.layers[d.name]
		}
		out[d.name] = median(xs)
	}
	if ps.first.events > 0 {
		out["iosched.host_ns_per_event"] = medianOf(plain, func(s *passStat) float64 {
			return float64(s.engineNS) / float64(s.events)
		})
		out["iosched.allocs_per_event"] = medianOf(plain, func(s *passStat) float64 {
			return float64(s.engineAllocs) / float64(s.events)
		})
	}
	out["bench.trace_overhead_pct"] = (opsPerSec(plain)/opsPerSec(traced) - 1) * 100
	return out
}

// metricValue is one metric as printed.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	spansDir string
}

// run executes one benchmark run and returns its result.
func run(o options) (result, error) {
	var w benchWorkload
	var err error
	for _, def := range workloads {
		if def.name == o.workload {
			w, err = def.prepare(cliSeed(o.seed))
		}
	}
	if err != nil {
		return result{}, err
	}
	if w == nil {
		return result{}, fmt.Errorf("unknown workload %q (valid: scan, replay, fleet)", o.workload)
	}
	budget := int64(o.seconds * 1e9)
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	var ps passes
	var vals map[string]float64
	defs := endToEnd
	if !o.trace {
		if ps, err = runPasses(w, false, budget, 3); err != nil {
			return result{}, err
		}
		if vals, err = endToEndMetrics(ps); err != nil {
			return result{}, err
		}
	} else {
		if ps, err = runPasses(w, true, budget, 4); err != nil {
			return result{}, err
		}
		vals, defs = perLayerMetrics(ps), perLayer
		if o.spansDir != "" {
			path := filepath.Join(o.spansDir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
			if err := writeSpans(path, ps.spans); err != nil {
				return result{}, err
			}
		}
	}
	for _, s := range ps.stats {
		res.Attempted += s.ops
		res.Failed += s.failed
	}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}

// cliSeed passes the --seed flag through as the run's reproducibility
// root: the same seed regenerates the same inputs.
//
//sledlint:seed
func cliSeed(seed uint64) uint64 { return seed }

func main() {
	// The simulator is single-threaded. A second P would only run the
	// collector beside it, which makes the measured cost depend on
	// whether another CPU happens to be idle; one P measures the cost of
	// simulating, collector included, on one CPU.
	runtime.GOMAXPROCS(1)
	os.Exit(mainCode(os.Args[1:], os.Stdout, os.Stderr))
}

// mainCode runs the command and returns its exit code.
func mainCode(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: scan, replay or fleet")
	fs.Uint64Var(&o.seed, "seed", 1, "seed every input derives from")
	fs.Float64Var(&o.seconds, "seconds", 10, "host seconds of passes to run")
	fs.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a traced run")
	fs.StringVar(&o.spansDir, "spans-dir", "", "directory for the traced run's span file (none when empty)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	o.trace = trace == 1
	res, err := run(o)
	var mm *mismatchError
	if errors.As(err, &mm) {
		res = result{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]metricValue{}}
	} else if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(stderr, "perfbench:", jerr)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}
