package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// setupRepeats is how many times a run sets up; setup_s is their median.
const setupRepeats = 5

// opKind separates the ops p50/p90 cover from the reads read_p50 covers.
type opKind int

const (
	computeOp opKind = iota
	readOp
)

// lap is one round's measurements.
type lap struct {
	traced         bool
	thr            float64   // ops over the round's timed seconds
	compute, reads []float64 // latencies in ms of the ops that passed
}

// runner holds one run's settings and everything it measures.
type runner struct {
	workload string
	seed     int64
	dur      time.Duration
	traced   bool
	out      string

	setups                   int // set-ups per run; setup_s is their median
	attempted, failed, wrong int
	timed                    time.Duration
	computeOps               int
	rounds                   int64
	allocBytes               uint64
	setupS                   float64
	heapMB                   float64

	// laps holds each round's measurements; odd rounds are traced in
	// trace mode.
	laps     []lap
	tr       *tracer
	tracing  bool
	layer    map[string]float64
	errShown int
}

func newRunner(workload string, seed int64, dur time.Duration, traced bool, out string) *runner {
	return &runner{
		workload: workload, seed: seed, dur: dur, traced: traced, out: out,
		setups: setupRepeats, tr: newTracer(), layer: map[string]float64{},
	}
}

// allocBytes reads the cumulative heap allocation counter.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// liveHeapMB forces a GC and returns the heap it found live, in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// timedCall runs fn as the timed section of one op.
func timedCall(fn func() error) (time.Duration, uint64, error) {
	a0 := allocBytes()
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	return d, allocBytes() - a0, err
}

// record books one attempted op. err is the op's own failure; bad is a
// failed output check (counted as failed and as wrong).
func (r *runner) record(kind opKind, d time.Duration, alloc uint64, rounds int, err, bad error) bool {
	r.attempted++
	r.timed += d
	r.allocBytes += alloc
	if err != nil || bad != nil {
		r.failed++
		if bad != nil {
			r.wrong++
			err = fmt.Errorf("check failed: %w", bad)
		}
		if r.errShown < 5 {
			r.errShown++
			fmt.Fprintf(os.Stderr, "perfbench: %s op %d: %v\n", r.workload, r.attempted, err)
		}
		return false
	}
	ms := float64(d) / 1e6
	l := &r.laps[len(r.laps)-1]
	if kind == readOp {
		l.reads = append(l.reads, ms)
		return true
	}
	l.compute = append(l.compute, ms)
	r.computeOps++
	r.rounds += int64(rounds)
	return true
}

// book records an op, or during warm-up (rec false) records nothing and
// returns the op's failure. ok reports an op that passed.
func (r *runner) book(rec bool, kind opKind, d time.Duration, alloc uint64, rounds int, err, bad error) (ok bool, warmErr error) {
	if rec {
		return r.record(kind, d, alloc, rounds, err, bad), nil
	}
	if err == nil {
		err = bad
	}
	return err == nil, err
}

// setup runs build r.setups times, tearing down all but the last set-up,
// and records the median set-up time.
func (r *runner) setup(build func() (teardown func(), err error)) (func(), error) {
	times := make([]float64, 0, r.setups)
	var teardown func()
	for i := 0; i < r.setups; i++ {
		if teardown != nil {
			teardown()
		}
		runtime.GC()
		t0 := time.Now()
		td, err := build()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		teardown = td
	}
	r.setupS = quantile(times, 0.5)
	return teardown, nil
}

// loop repeats round until the run's time is up, always completing whole
// rounds. In trace mode rounds alternate untraced/traced and the loop ends
// after a traced round, so both halves hold the same number of rounds.
func (r *runner) loop(round func(i int) error) error {
	deadline := time.Now().Add(r.dur)
	for i := 0; ; i++ {
		r.tracing = r.traced && i%2 == 1
		r.laps = append(r.laps, lap{traced: r.tracing})
		ops, timed := r.attempted, r.timed
		if err := round(i); err != nil {
			return err
		}
		if t := (r.timed - timed).Seconds(); t > 0 {
			r.laps[len(r.laps)-1].thr = float64(r.attempted-ops) / t
		}
		if time.Now().After(deadline) && (!r.traced || r.tracing) {
			r.tracing = false
			return nil
		}
	}
}

// finish records the end-of-run heap and the tracing overhead.
func (r *runner) finish() {
	r.heapMB = liveHeapMB()
	if r.traced {
		_, _, traced := r.pick(true)
		_, _, untraced := r.pick(false)
		r.layer["trace.overhead_frac"] = 1 - quantile(traced, 0.5)/quantile(untraced, 0.5)
	}
}

// pick gathers the traced or untraced rounds' op latencies and
// throughputs.
func (r *runner) pick(traced bool) (compute, reads, thr []float64) {
	for _, l := range r.laps {
		if l.traced == traced {
			compute = append(compute, l.compute...)
			reads = append(reads, l.reads...)
			thr = append(thr, l.thr)
		}
	}
	return compute, reads, thr
}

// quantile is the linearly interpolated q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// span is one traced interval; times are microseconds since the run began.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Name   string             `json:"name"`
	Start  float64            `json:"start_us"`
	End    float64            `json:"end_us"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	next  int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newID reserves a span ID, so children can name a parent before it closes.
func (t *tracer) newID() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// add records a span over [start, end] under a reserved (or fresh) ID.
func (t *tracer) add(id, parent int, name string, start, end time.Time, attrs map[string]float64) int {
	if id == 0 {
		id = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name,
		Start: float64(start.Sub(t.t0).Nanoseconds()) / 1e3,
		End:   float64(end.Sub(t.t0).Nanoseconds()) / 1e3,
		Attrs: attrs,
	})
	t.mu.Unlock()
	return id
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the spans as one JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].ID < t.spans[j].ID })
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// corePhases are the paper pipelines' top-level phase spans, as the
// pipelines name them (with '/' in place of the printed '-').
var corePhases = []string{
	"alg1/acd", "alg1/classify",
	"alg2/matching", "alg2/heg", "alg2/sparsify", "alg2/triads", "alg2/pairs", "alg2/rest",
	"alg3/rulingset", "alg3/layers",
	"alg4/acd", "alg4/classify", "alg4/preshatter", "alg4/components", "alg4/happylayers",
}

// coreName is the printed metric prefix of a phase span.
func coreName(phase string) string {
	b := []byte(phase)
	for i, c := range b {
		if c == '/' {
			b[i] = '-'
		}
	}
	return "core." + string(b)
}

// perLayerNames lists every per-layer metric a traced run prints.
func perLayerNames() []string {
	var names []string
	for _, ph := range corePhases {
		p := coreName(ph)
		names = append(names, p+".ms_per_op", p+".rounds_per_op", p+".alloc_mb_per_op")
	}
	return append(names,
		"core.op.ms_per_op", "core.unattributed.ms_per_op",
		"local.engine_rounds_per_op", "local.sparse_round_frac", "local.skipped_eval_frac",
		"backend.select_ms_per_op",
		"service.run_ms_per_op", "service.overhead_ms_per_op", "service.response_kb_per_op",
		"service.cache_hits", "service.cache_misses",
		"shard.rounds_per_op", "shard.step_calls_per_op", "shard.boundary_updates_per_op",
		"shard.worker_ms_per_op", "shard.wire_kb_per_op", "shard.coordinator_ms_per_op",
		"dynamic.recolor_ms_per_batch", "dynamic.rebuild_ms_per_batch", "dynamic.recolored_per_batch",
		"dynamic.rounds_per_batch", "dynamic.incremental_frac", "dynamic.read_kb_per_op",
		"durable.wal_bytes_per_batch", "durable.fsyncs", "durable.checkpoints", "durable.checkpoint_batch_ms",
		"trace.overhead_frac",
	)
}

// perOp divides a sum by a count, reading 0 for an empty count.
func perOp(sum float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
