package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"deltacoloring"
	"deltacoloring/internal/graph"
	"deltacoloring/internal/graphio"
)

// pipelineDelta is Δ of every pipeline input; the scaled presets need Δ ≳ 16.
const pipelineDelta = 16

// pipelinePerms is how many ID permutations of each family a round colors.
// A Thm. 2 op's latency on one graph moves by about a quarter with its seed,
// so a round needs many hard/mixed randomized ops for p90 not to follow the
// run seed: sixteen permutations give 32 of them.
const pipelinePerms = 16

// pipelineOp is one coloring of the fixed per-round sequence.
type pipelineOp struct {
	name   string
	g      *graph.Graph
	stored string // g as an edge list, which the op's read loads
	rand   bool
	seed   int64 // randomized ops only
	rounds int   // det ops: the rounds every repeat must give
}

// pipelineInputs builds the seeded op sequence: three Δ=16 families with
// n=2048, pipelinePerms ID permutations each, every graph colored once by
// Thm. 1 and once by Thm. 2 with its own seed.
func pipelineInputs(seed int64) ([]*pipelineOp, error) {
	rng := rand.New(rand.NewSource(seed))
	fams := []struct {
		name string
		g    *graph.Graph
	}{
		{"hard", deltacoloring.GenHardCliqueBipartite(64, pipelineDelta)},
		{"mixed", deltacoloring.GenHardWithEasyPatch(64, pipelineDelta)},
		{"easy", deltacoloring.GenEasyCliqueRing(128, pipelineDelta)},
	}
	var ops []*pipelineOp
	for perm := 0; perm < pipelinePerms; perm++ {
		for _, f := range fams {
			g := graph.PermuteIDs(f.g, rng)
			stored, err := edgeList(g)
			if err != nil {
				return nil, err
			}
			name := fmt.Sprintf("%s%d", f.name, perm)
			ops = append(ops,
				&pipelineOp{name: name + "/det", g: g, stored: stored},
				&pipelineOp{name: name + "/rand", g: g, stored: stored, rand: true, seed: rng.Int63()})
		}
	}
	return ops, nil
}

// load is the op's read: parse the stored input with graphio, as a caller
// reloading it would, and verify the returned coloring against it with the
// library's own verifier. The coloring already passed the benchmark's own
// check, so a verdict other than nil is a wrong answer.
func (op *pipelineOp) load(colors []int) (verdict, err error) {
	g, err := graphio.Read(strings.NewReader(op.stored))
	if err != nil {
		return nil, err
	}
	return deltacoloring.Verify(g, colors), nil
}

// phaseAcc sums one phase's traced cost.
type phaseAcc struct {
	ms, allocMB float64
	rounds      int
}

// pipelineTrace accumulates the traced rounds' per-layer sums.
type pipelineTrace struct {
	ops             int
	phases          map[string]*phaseAcc
	opMS            float64
	unattributedMS  float64
	engine, sparse  int
	active, skipped int64
}

// color runs one op through the public API. With tracing on, the span hook
// stamps each phase close with time and allocations; a phase runs from the
// previous close (or the op's start) to its own close.
func (op *pipelineOp) color(tr *tracer, acc *pipelineTrace) (*deltacoloring.Result, time.Duration, uint64, error) {
	var res *deltacoloring.Result
	opts := &deltacoloring.RunOptions{}
	opID := 0
	var last time.Time
	var lastAlloc uint64
	var phaseMS float64
	if acc != nil {
		opID = tr.newID()
		opts.SpanHook = func(s deltacoloring.Span) {
			now, a := time.Now(), allocBytes()
			ms := float64(now.Sub(last)) / 1e6
			if p, ok := acc.phases[s.Name]; ok {
				p.ms += ms
				p.allocMB += float64(a-lastAlloc) / (1 << 20)
				p.rounds += s.Rounds
				phaseMS += ms
			}
			tr.add(0, opID, s.Name, last, now, map[string]float64{"rounds": float64(s.Rounds)})
			last, lastAlloc = now, a
		}
	}
	start := time.Now()
	d, alloc, err := timedCall(func() error {
		last, lastAlloc = time.Now(), allocBytes()
		if op.rand {
			rr, err := deltacoloring.RandomizedContext(context.Background(), op.g,
				deltacoloring.ScaledRandomizedParams(), op.seed, opts)
			if err != nil {
				return err
			}
			res = &rr.Result
			return nil
		}
		var err error
		res, err = deltacoloring.DeterministicContext(context.Background(), op.g, deltacoloring.ScaledParams(), opts)
		return err
	})
	if acc != nil && err == nil {
		acc.ops++
		acc.opMS += float64(d) / 1e6
		acc.unattributedMS += float64(d)/1e6 - phaseMS
		acc.engine += res.Frontier.EngineRounds
		acc.sparse += res.Frontier.SparseRounds
		acc.active += res.Frontier.ActiveVertices
		acc.skipped += res.Frontier.SkippedVertices
		tr.add(opID, 0, "pipeline/"+op.name, start, start.Add(d), map[string]float64{"rounds": float64(res.Rounds)})
	}
	return res, d, alloc, err
}

// check is the op's output check against the benchmark's own code.
func (op *pipelineOp) check(res *deltacoloring.Result) error {
	if err := checkProper(op.g.N(), op.g.Neighbors, res.Colors, pipelineDelta); err != nil {
		return fmt.Errorf("%s: %w", op.name, err)
	}
	if !op.rand && op.rounds != 0 && res.Rounds != op.rounds {
		return fmt.Errorf("%s: %d rounds, the same input gave %d before", op.name, res.Rounds, op.rounds)
	}
	return nil
}

func runPipeline(r *runner) error {
	var ops []*pipelineOp
	teardown, err := r.setup(func() (func(), error) {
		var err error
		if ops, err = pipelineInputs(r.seed); err != nil {
			return nil, err
		}
		// Warm-up: one untimed pass, which also fixes each det op's rounds.
		for _, op := range ops {
			res, _, _, err := op.color(nil, nil)
			if err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", op.name, err)
			}
			if err := op.check(res); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
			if !op.rand {
				op.rounds = res.Rounds
			}
			if verdict, err := op.load(res.Colors); err != nil || verdict != nil {
				return nil, fmt.Errorf("warm-up read %s: %v %v", op.name, err, verdict)
			}
		}
		return func() {}, nil
	})
	if err != nil {
		return err
	}
	defer teardown()

	acc := &pipelineTrace{phases: map[string]*phaseAcc{}}
	for _, ph := range corePhases {
		acc.phases[ph] = &phaseAcc{}
	}
	err = r.loop(func(int) error {
		for _, op := range ops {
			var a *pipelineTrace
			if r.tracing {
				a = acc
			}
			res, d, alloc, err := op.color(r.tr, a)
			var bad error
			if err == nil {
				bad = op.check(res)
			}
			if !r.record(computeOp, d, alloc, resRounds(res), err, bad) {
				continue
			}
			var verdict error
			d, alloc, err = timedCall(func() error {
				var err error
				verdict, err = op.load(res.Colors)
				return err
			})
			r.record(readOp, d, alloc, 0, err, verdict)
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.finish()
	runtime.KeepAlive(ops) // the inputs count in the end-of-run live heap
	for _, ph := range corePhases {
		p := acc.phases[ph]
		name := coreName(ph)
		r.layer[name+".ms_per_op"] = perOp(p.ms, acc.ops)
		r.layer[name+".rounds_per_op"] = perOp(float64(p.rounds), acc.ops)
		r.layer[name+".alloc_mb_per_op"] = perOp(p.allocMB, acc.ops)
	}
	r.layer["core.op.ms_per_op"] = perOp(acc.opMS, acc.ops)
	r.layer["core.unattributed.ms_per_op"] = perOp(acc.unattributedMS, acc.ops)
	r.layer["local.engine_rounds_per_op"] = perOp(float64(acc.engine), acc.ops)
	r.layer["local.sparse_round_frac"] = perOp(float64(acc.sparse), acc.engine)
	r.layer["local.skipped_eval_frac"] = perOp(float64(acc.skipped), int(acc.active+acc.skipped))
	return nil
}

// resRounds is a result's LOCAL rounds (0 for a failed op).
func resRounds(res *deltacoloring.Result) int {
	if res == nil {
		return 0
	}
	return res.Rounds
}
