package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// orderStat returns the exact p-quantile of an ascending sample by the
// nearest-rank rule: the smallest sample with at least p·n samples at
// or below it. No interpolation and no bucketing: every reported
// percentile is one of the measured values.
func orderStat(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(p * float64(len(sorted))))
	if k < 1 {
		k = 1
	}
	return sorted[k-1]
}

// median is the nearest-rank median; 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return orderStat(sortedCopy(xs), 0.5)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sortedKinds(m map[string]float64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// facts are the deterministic per-round counts: for a fixed seed they
// repeat exactly, traced or not.
type facts struct {
	instructions uint64 // simulated instructions retired
	cycles       uint64 // simulated core cycles
	reportBytes  uint64 // bytes the device sent for the verdict
	stall        uint64 // processor stall cycles the device caused
	cfEvents     uint64 // control-flow events the branch filter saw
	hashedPairs  uint64 // pairs the hash engine absorbed
}

func (f *facts) add(g facts) {
	f.instructions += g.instructions
	f.cycles += g.cycles
	f.reportBytes += g.reportBytes
	f.stall += g.stall
	f.cfEvents += g.cfEvents
	f.hashedPairs += g.hashedPairs
}

// tally accumulates the rounds of a run's passes. It is safe for
// concurrent use: fed-sweep records device rounds from node workers.
type tally struct {
	mu      sync.Mutex
	roundUs []float64
	// Per untraced pass: its duration, the time the reference took
	// right after it, and len(roundUs) at its end. Rates are totals
	// over the timed passes.
	passMs            []float64
	passRefMs         []float64
	passEnd           []int
	timed             time.Duration
	timedCorrect      int
	timedInstructions uint64
	// Heap bytes allocated during untraced passes, and their rounds.
	allocBytes  uint64
	allocRounds int
	kindNs      map[string]float64
	kindRounds  map[string]int
	attempted   int
	failed      int
	correct     int
	rounds      int // rounds whose facts were added
	facts
	// Per-sweep federation counts (fed-sweep only). Their medians are
	// exact for a fixed seed; a mean would depend on how many sweeps a
	// run fits between two WAL compactions.
	sweepFsyncs []float64
	sweepWAL    []float64
}

func newTally() *tally {
	return &tally{kindNs: map[string]float64{}, kindRounds: map[string]int{}}
}

// latency records one round's challenge-to-verdict time.
func (t *tally) latency(kind string, d time.Duration) {
	t.mu.Lock()
	t.roundUs = append(t.roundUs, float64(d)/1e3)
	t.kindNs[kind] += float64(d)
	t.kindRounds[kind]++
	t.mu.Unlock()
}

// verdicts records attempted rounds and how many of them failed.
func (t *tally) verdicts(attempted, failed int) {
	t.mu.Lock()
	t.attempted += attempted
	t.failed += failed
	t.correct += attempted - failed
	t.mu.Unlock()
}

// addFacts records the deterministic counts of n rounds.
func (t *tally) addFacts(n int, f facts) {
	t.mu.Lock()
	t.rounds += n
	t.facts.add(f)
	t.mu.Unlock()
}

// round records one complete in-memory round.
func (t *tally) round(kind string, d time.Duration, ok bool, f facts) {
	t.latency(kind, d)
	failed := 0
	if !ok {
		failed = 1
	}
	t.verdicts(1, failed)
	t.addFacts(1, f)
}

// sampleBytes is the heap the tally's own sample buffers hold, which
// the heap metric leaves out: they grow with the number of rounds a
// run fits, not with the system.
func (t *tally) sampleBytes() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := cap(t.roundUs) + cap(t.passMs) + cap(t.passRefMs) + cap(t.passEnd) + cap(t.sweepFsyncs) + cap(t.sweepWAL)
	return uint64(8 * n)
}

func (t *tally) perRound(v uint64) float64 {
	if t.rounds == 0 {
		return 0
	}
	return float64(v) / float64(t.rounds)
}

func (t *tally) meanRoundUs() float64 {
	if len(t.roundUs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range t.roundUs {
		s += v
	}
	return s / float64(len(t.roundUs))
}

// layers accumulates the per-layer measurements of traced rounds, by
// metric name. Sums become per-round (or per-call) means in
// layerResult; maxima are high-water marks.
type layers struct {
	mu     sync.Mutex
	rounds int
	sum    map[string]float64
	max    map[string]float64
}

func newLayers() *layers {
	return &layers{sum: map[string]float64{}, max: map[string]float64{}}
}

func (l *layers) add(name string, v float64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.sum[name] += v
	l.mu.Unlock()
}

func (l *layers) addNs(name string, d time.Duration) { l.add(name, float64(d)) }

func (l *layers) hi(name string, v float64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if v > l.max[name] {
		l.max[name] = v
	}
	l.mu.Unlock()
}

func (l *layers) verdict() {
	l.mu.Lock()
	l.rounds++
	l.mu.Unlock()
}

func sum(m map[string]float64) float64 {
	s := 0.0
	for _, v := range m {
		s += v
	}
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerResult is the trace run's report: per-layer metrics of the
// traced passes, plus the tracing overhead against the interleaved
// untraced passes.
func layerResult(out *outcome) result {
	l, tt, tu := out.layers, out.traced, out.untraced
	s := l.sum
	n := float64(l.rounds)
	per := func(k string) float64 { return ratio(s[k], n) }
	inst := float64(tt.instructions)
	segments := s["stream.segments"]
	m := map[string]metric{
		"cpu.self_ns":           {per("cpu.self_ns"), "ns"},
		"cpu.instructions":      {tt.perRound(tt.instructions), "count"},
		"cpu.ns_per_inst":       {ratio(s["cpu.self_ns"], inst), "ns"},
		"cpu.stepped_share":     {ratio(s["cpu.stepped"], inst), "share"},
		"core.retire_ns":        {per("core.retire_ns"), "ns"},
		"core.events_delivered": {per("core.events"), "count"},
		"core.batches":          {per("core.batches"), "count"},
		"core.finalize_ns":      {per("core.finalize_ns"), "ns"},
		"core.max_lag_cycles":   {l.max["core.max_lag_cycles"], "cycles"},
		"core.stall_cycles":     {tt.perRound(tt.stall), "cycles"},

		"filter.step_ns":          {ratio(s["filter.step_ns"], s["replays"]), "ns"},
		"filter.cf_events":        {ratio(s["filter.cf_events"], s["replays"]), "count"},
		"filter.loops_detected":   {ratio(s["filter.loops"], s["replays"]), "count"},
		"monitor.apply_ns":        {ratio(s["monitor.apply_ns"], s["replays"]), "ns"},
		"monitor.path_hit_ratio":  {ratio(s["monitor.repeated"], s["monitor.repeated"]+s["monitor.new"]), "share"},
		"hashengine.absorb_ns":    {ratio(s["hashengine.absorb_ns"], s["replays"]), "ns"},
		"hashengine.hashed_pairs": {ratio(s["hashengine.hashed"], s["replays"]), "count"},
		"hashengine.dedup_ratio":  {ratio(s["hashengine.deduped"], s["hashengine.deduped"]+s["hashengine.hashed"]), "share"},
		"hashengine.fifo_max":     {l.max["hashengine.fifo_max"], "pairs"},

		"sig.sign_ns":              {ratio(s["sig.sign_ns"], s["sig.signs"]), "ns"},
		"sig.verify_ns":            {ratio(s["sig.verify_ns"], s["sig.verifies"]), "ns"},
		"sig.signs_per_verdict":    {per("sig.signs"), "count"},
		"sig.verifies_per_verdict": {per("sig.verifies"), "count"},

		"attest.attest_ns":        {per("attest.attest_ns"), "ns"},
		"attest.verify_ns":        {per("attest.verify_ns"), "ns"},
		"attest.codec_ns":         {per("attest.codec_ns"), "ns"},
		"attest.expect_hit_ratio": {1 - ratio(s["attest.golden_runs"], n), "share"},
		"attest.reject_share":     {per("attest.rejected"), "share"},

		"stream.segments_per_round": {ratio(segments, s["stream.rounds"]), "count"},
		"stream.consume_ns":         {ratio(s["stream.consume_ns"], segments), "ns"},
		"stream.abort_saved_share":  {1 - ratio(segments, s["stream.expected_segments"]), "share"},

		"fleet.exchange_ns":          {per("fleet.exchange_ns"), "ns"},
		"fleet.device_ns":            {per("fleet.device_ns"), "ns"},
		"fleet.wire_bytes_per_round": {per("fleet.wire_bytes"), "bytes"},
		"fleet.dials_per_round":      {per("fleet.dials"), "count"},
		"fleet.cache_hit_ratio":      {l.max["fleet.cache_hit_ratio"], "share"},

		"fed.ctrl_bytes_per_sweep": {ratio(s["fed.ctrl_bytes"], s["fed.sweeps"]), "bytes"},
		"fed.fsyncs_per_sweep":     {median(tt.sweepFsyncs), "count"},
		"fed.fsync_ns":             {ratio(s["fed.fsync_ns"], s["fed.fsyncs"]), "ns"},
		"fed.wal_bytes_per_sweep":  {median(tt.sweepWAL), "bytes"},

		"cfg.build_ns":     {ratio(out.setupLayers.sum["cfg.build_ns"], out.setupLayers.sum["cfg.builds"]), "ns"},
		"attest.golden_ns": {ratio(out.setupLayers.sum["attest.golden_ns"], out.setupLayers.sum["attest.goldens"]), "ns"},
		"fed.enroll_ns":    {ratio(out.setupLayers.sum["fed.enroll_ns"], out.setupLayers.sum["fed.enrolls"]), "ns"},
	}
	if s["stream.expected_segments"] == 0 {
		m["stream.abort_saved_share"] = metric{0, "share"}
	}

	// Tracing overhead, and how much of a traced round the measured
	// layer self times account for.
	traced, untraced := tt.meanRoundUs(), tu.meanRoundUs()
	self := s["cpu.self_ns"] + s["core.retire_ns"] + s["core.finalize_ns"] +
		s["sig.sign_ns"] + s["sig.verify_ns"] +
		s["attest.attest_ns"] + s["attest.verify_ns"] + s["attest.codec_ns"]
	m["trace.round_mean_traced_us"] = metric{traced, "us"}
	m["trace.round_mean_untraced_us"] = metric{untraced, "us"}
	m["trace.overhead_share"] = metric{ratio(traced, untraced) - 1, "share"}
	m["trace.self_sum_share"] = metric{ratio(self/n/1e3, traced), "share"}

	all := newTally()
	all.verdicts(tu.attempted+tt.attempted, tu.failed+tt.failed)
	all.stall = tu.stall + tt.stall
	m["bench.failed_share"] = metric{ratio(float64(all.failed), float64(all.attempted)), "share"}
	return all.result(m)
}
