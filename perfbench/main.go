// Command perfbench is the repository benchmark: it runs one named
// workload of attestation rounds from a seed for a fixed time, checks
// every verdict against its label, and prints every metric by name and
// unit. The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// they are the per-layer ones, measured from outside the program by
// timing calls into the public functions of each layer. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// config is one run's parameters.
type config struct {
	workload string
	seed     uint64
	duration time.Duration
	traced   bool
	// setups is how many times the workload is set up; setup_s is the
	// median and the first set-up is the one measured.
	setups int
	// tmpDir holds the federation nodes' WAL directories.
	tmpDir string
}

// workload is one set-up benchmark workload.
type workload interface {
	// prepare runs the untimed checks that follow set-up: one traced
	// round per kind, which measures its deterministic counts and
	// checks its verdict.
	prepare() error
	// pass runs one closed-loop pass over the workload's seeded request
	// list, recording into t (and into l when traced).
	pass(traced bool, t *tally, l *layers)
	// close stops everything the set-up started and waits for it.
	close()
}

// setupFunc sets the system up from inputs already drawn from the seed,
// recording per-layer set-up times into l. It is what setup_s times.
type setupFunc func(l *layers) (workload, error)

// drawers draw each workload's inputs from the seed, which is the
// benchmark's own work and untimed, and return its set-up step.
var drawers = map[string]func(config) (setupFunc, error){
	"attest-long": newAttestLong,
	"fed-sweep":   newFedSweep,
	"attack-mix":  newAttackMix,
}

// procs is the GOMAXPROCS of a run. On one P a client goroutine never
// migrates between Ps (a migration misses the per-P machine pools and
// reloads a machine), and fed-sweep's two nodes interleave under the Go
// scheduler instead of sharing a vCPU in OS time slices whenever the
// host takes the other one away: with two Ps those slices set the
// sweep's tail.
const procs = 1

// outcome is everything one run measured.
type outcome struct {
	setup []float64 // seconds per set-up
	// setupPass is, per set-up, the timed pass whose reference time
	// scales it: the pass just before it, or the first one.
	setupPass []int
	// setupLayers holds the per-layer timings of every set-up.
	setupLayers *layers
	untraced    *tally // untraced passes
	traced      *tally // traced passes (trace runs only)
	layers      *layers
	heapPeak    uint64 // bytes
	elapsed     time.Duration
}

func run(cfg config) (*outcome, error) {
	draw, ok := drawers[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	defer debug.SetGCPercent(debug.SetGCPercent(gcPercent))
	if cfg.setups < 1 {
		cfg.setups = 1
	}
	setup, err := draw(cfg)
	if err != nil {
		return nil, err
	}
	out := &outcome{untraced: newTally(), traced: newTally(), layers: newLayers(), setupLayers: newLayers()}
	timedSetup := func() (workload, error) {
		runtime.GC()
		t0 := time.Now()
		w, err := setup(out.setupLayers)
		if err != nil {
			return nil, err
		}
		out.setup = append(out.setup, time.Since(t0).Seconds())
		out.setupPass = append(out.setupPass, max(len(out.untraced.passMs)-1, 0))
		return w, nil
	}
	w, err := timedSetup()
	if err != nil {
		return nil, err
	}
	defer w.close()
	if err := w.prepare(); err != nil {
		return nil, err
	}

	// One untimed pass lets pools, caches and the heap reach their
	// steady state before the clock starts; its verdicts still count.
	warm := newTally()
	w.pass(false, warm, nil)
	out.untraced.verdicts(warm.attempted, warm.failed)
	out.heapPeak = collect()

	// The other set-ups are spread across the run, one after the pass
	// that ends each further 1/setups of it, and closed at once: the
	// host's speed shifts for seconds at a time, and set-ups made back
	// to back would all time the same shift.
	every := cfg.duration / time.Duration(cfg.setups)
	next := every
	// At least two passes, so a trace run always has a traced one.
	start := time.Now()
	for i := 0; i < 2 || time.Since(start) < cfg.duration; i++ {
		// A trace run interleaves untraced and traced passes, so the
		// tracing overhead is measured under the same conditions.
		if cfg.traced && i%2 == 1 {
			w.pass(true, out.traced, out.layers)
		} else {
			t := out.untraced
			correct, inst, rounds := t.correct, t.instructions, t.rounds
			ref := reference()
			a0 := allocated()
			p0 := time.Now()
			w.pass(false, t, nil)
			d := time.Since(p0)
			t.allocBytes += allocated() - a0
			t.allocRounds += t.rounds - rounds
			t.mu.Lock()
			t.passEnd = append(t.passEnd, len(t.roundUs))
			t.mu.Unlock()
			t.passMs = append(t.passMs, d.Seconds()*1e3)
			t.passRefMs = append(t.passRefMs, ref.Seconds()*1e3)
			t.timed += d
			t.timedCorrect += t.correct - correct
			t.timedInstructions += t.instructions - inst
		}
		if len(out.setup) < cfg.setups && time.Since(start) >= next {
			extra, err := timedSetup()
			if err != nil {
				return nil, err
			}
			extra.close()
			next += every
		}
		if v := collect() - out.untraced.sampleBytes() - out.traced.sampleBytes(); v > out.heapPeak {
			out.heapPeak = v
		}
	}
	out.elapsed = time.Since(start)
	return out, nil
}

// gcPercent is the GOGC of a run. With a full GC between two passes it
// leaves every pass room to allocate without a collection: a fed-sweep
// sweep allocates about 3.7 MB on a 3.5 MB live heap, which at the
// default of 100 put a GC cycle, at a place the host's timing decided,
// inside most sweeps.
const gcPercent = 400

// collect runs a full GC between two passes and reports the live heap
// it leaves. Collecting at every pass boundary keeps GC cycles, whose
// timing depends on the host, out of the timed rounds. What the rounds
// allocate is reported on its own, as alloc_bytes_per_round.
func collect() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// allocated reports the bytes allocated on the heap so far.
func allocated() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var seconds int
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: attest-long, fed-sweep or attack-mix")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed every input is derived from")
	flag.IntVar(&seconds, "seconds", 10, "measured time in seconds")
	flag.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a traced run; 0: end-to-end metrics")
	flag.Parse()
	cfg.duration = time.Duration(seconds) * time.Second
	cfg.traced = trace == 1
	cfg.setups = setups
	cfg.tmpDir = ".bench_build"

	fmt.Println(hostFacts())
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	var res result
	if cfg.traced {
		res = layerResult(out)
	} else {
		res = endToEndResult(out)
	}
	printSummary(os.Stdout, out, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// setups is how many times a run sets its workload up; setup_s is the
// median. Set-up takes milliseconds on the in-memory workloads, so one
// set-up alone would time the host more than the system.
const setups = 21

// endToEndResult is the untraced run's report. Its timings are in
// reference time (see reference.go); the printed summary also gives
// them in wall-clock time.
func endToEndResult(out *outcome) result {
	return endToEnd(out, hostScales(out.untraced.passRefMs))
}

// endToEnd reports the untraced passes with each pass's timings
// multiplied by its scale.
func endToEnd(out *outcome, scales []float64) result {
	t := out.untraced
	var rounds, passes, setup []float64
	timed, start := 0.0, 0
	for i, end := range t.passEnd {
		for _, us := range t.roundUs[start:end] {
			rounds = append(rounds, us*scales[i])
		}
		start = end
		passes = append(passes, t.passMs[i]*scales[i])
		timed += t.passMs[i] * scales[i] / 1e3
	}
	for i, s := range out.setup {
		setup = append(setup, s*scales[out.setupPass[i]])
	}
	sort.Float64s(rounds)
	sort.Float64s(passes)
	sort.Float64s(setup)
	m := map[string]metric{
		"verdicts_per_s":        {float64(t.timedCorrect) / timed, "1/s"},
		"round_p50_us":          {orderStat(rounds, 0.50), "us"},
		"round_p99_us":          {orderStat(rounds, 0.99), "us"},
		"sweep_p50_ms":          {orderStat(passes, 0.50), "ms"},
		"sweep_p90_ms":          {orderStat(passes, 0.90), "ms"},
		"sim_mips":              {float64(t.timedInstructions) / timed / 1e6, "Minst/s"},
		"setup_s":               {orderStat(setup, 0.50), "s"},
		"heap_peak_mb":          {float64(out.heapPeak) / (1 << 20), "MiB"},
		"alloc_bytes_per_round": {float64(t.allocBytes) / float64(t.allocRounds), "bytes"},
		"report_bytes":          {t.perRound(t.reportBytes), "bytes"},
		"sim_cycles_per_round":  {t.perRound(t.cycles), "cycles"},
	}
	return t.result(m)
}

// result wraps metrics with the tally's verdict counts. A round the
// device stalled is a wrong result: the paper's claim is zero stalls.
func (t *tally) result(m map[string]metric) result {
	return result{
		Correct:   t.failed == 0 && t.attempted > 0 && t.stall == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   m,
	}
}

// printSummary prints the human-readable lines before the JSON one:
// sample counts behind every order statistic, the reference times, the
// end-to-end timings in wall-clock time, and each metric.
func printSummary(w *os.File, out *outcome, res result) {
	b := bufio.NewWriter(w)
	defer b.Flush()
	t := out.untraced
	fmt.Fprintf(b, "samples: rounds=%d passes=%d setups=%d traced_rounds=%d timed_s=%.3f elapsed_s=%.3f\n",
		len(t.roundUs), len(t.passMs), len(out.setup), out.layers.rounds, t.timed.Seconds(), out.elapsed.Seconds())
	refs := sortedCopy(t.passRefMs)
	fmt.Fprintf(b, "reference: measurements=%d p10=%.4f p50=%.4f p90=%.4f ms\n",
		len(refs), orderStat(refs, 0.1), orderStat(refs, 0.5), orderStat(refs, 0.9))
	if len(refs) > 0 {
		ones := make([]float64, len(t.passMs))
		for i := range ones {
			ones[i] = 1
		}
		wall := endToEnd(out, ones).Metrics
		for _, n := range []string{"verdicts_per_s", "round_p50_us", "round_p99_us", "sweep_p50_ms", "sweep_p90_ms", "sim_mips", "setup_s"} {
			fmt.Fprintf(b, "wall-clock %-17s %.6g %s\n", n, wall[n].Value, wall[n].Unit)
		}
	}
	for _, k := range sortedKinds(t.kindNs) {
		fmt.Fprintf(b, "kind %-22s rounds=%-7d time_share=%.4f\n", k, t.kindRounds[k], ratio(t.kindNs[k], sum(t.kindNs)))
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(b, "%-28s %.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}

// hostFacts names the host a run was made on and the GOMAXPROCS the
// workload runs with.
func hostFacts() string {
	model := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		s := bufio.NewScanner(f)
		for s.Scan() {
			if k, v, ok := strings.Cut(s.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return fmt.Sprintf("host: nproc=%d gomaxprocs=%d cpu=%q go=%s os=%s/%s",
		runtime.NumCPU(), procs, model, runtime.Version(), runtime.GOOS, runtime.GOARCH)
}
