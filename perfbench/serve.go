package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"deltacoloring"
	"deltacoloring/internal/backend"
	"deltacoloring/internal/graph"
	"deltacoloring/internal/graphio"
	"deltacoloring/internal/local"
	"deltacoloring/internal/service"
	"deltacoloring/internal/shard"
)

// serveShards is the shard count of the sharded requests.
const serveShards = 4

// serveJobReadEvery: every this-many-th request is also read back through
// its retained job, so cache hits stay the bulk of the reads and read_p50
// sits inside one class.
const serveJobReadEvery = 4

// serveCacheSize is the coordinator's result-cache capacity. One round sends
// more distinct keys than this, so under LRU every key is evicted before the
// next round repeats it: each round's misses stay misses, its repeats hit.
const serveCacheSize = 8

// serveReq is one computing request of the round, with what its answer is
// checked against.
type serveReq struct {
	name        string
	path        string
	body        []byte
	g           *graph.Graph // as the server parses the body
	palette     int          // allowed colors
	wantBackend string       // resolved backend the response must name
	auto        bool
	sharded     bool
	want        []int // sharded: the single-process wire coloring
}

// serverParams are the presets the service runs its backends with.
func serverParams() backend.Params {
	p := backend.Params{Det: deltacoloring.ScaledParams(), Rand: deltacoloring.ScaledRandomizedParams()}
	p.Rand.Params = p.Det
	return p
}

// relabel returns g with its vertex indices permuted; over an edge list the
// index is the vertex's ID, so this is the seeded ID permutation.
func relabel(g *graph.Graph, rng *rand.Rand) *graph.Graph {
	perm := rng.Perm(g.N())
	b := graph.NewBuilder(g.N())
	for _, e := range g.Edges() {
		b.AddEdge(perm[e.U], perm[e.V])
	}
	return b.MustBuild()
}

// edgeList renders g in the service's inline edge-list format.
func edgeList(g *graph.Graph) (string, error) {
	var buf bytes.Buffer
	if err := graphio.Write(&buf, g, ""); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// serveInputs builds one round's requests from rng: dense Δ=16 graphs
// (n=1024, hard clique-bipartite and hard-with-easy-patch in turn) each under backend det, rand, auto
// and the legacy algo field, and sparse graphs, alternately 64×64 tori and
// random 6-regular graphs (n=2048), sharded serveShards ways.
func serveInputs(rng *rand.Rand, dense, sparse int) ([]*serveReq, error) {
	fams := []func() *graph.Graph{
		func() *graph.Graph { return deltacoloring.GenHardCliqueBipartite(32, pipelineDelta) },
		func() *graph.Graph { return deltacoloring.GenHardWithEasyPatch(32, pipelineDelta) },
	}
	var reqs []*serveReq
	add := func(name, path string, g *graph.Graph, cr service.ColorRequest, r *serveReq) error {
		el, err := edgeList(g)
		if err != nil {
			return err
		}
		cr.EdgeList = el
		body, err := json.Marshal(&cr)
		if err != nil {
			return err
		}
		// Parse the body the way the server does, so checks see its graph.
		parsed, err := graphio.Read(bytes.NewReader([]byte(el)))
		if err != nil {
			return err
		}
		r.name, r.path, r.body, r.g = name, path, body, parsed
		reqs = append(reqs, r)
		return nil
	}
	for i := 0; i < dense; i++ {
		g := relabel(fams[i%len(fams)](), rng)
		d := g.MaxDegree()
		name := fmt.Sprintf("dense%d", i)
		legacy := service.ColorRequest{Algo: "det"}
		legacyBackend := "det"
		if i%2 == 1 {
			legacy = service.ColorRequest{Algo: "rand", Seed: rng.Int63()}
			legacyBackend = "rand"
		}
		auto := backend.Select(g, serverParams()).Name()
		autoPalette := d
		if auto == "greedy" {
			autoPalette = d + 1
		}
		for _, x := range []struct {
			kind string
			cr   service.ColorRequest
			r    serveReq
		}{
			{"det", service.ColorRequest{Backend: "det"}, serveReq{palette: d, wantBackend: "det"}},
			{"rand", service.ColorRequest{Backend: "rand", Seed: rng.Int63()}, serveReq{palette: d, wantBackend: "rand"}},
			{"auto", service.ColorRequest{Backend: "auto"}, serveReq{palette: autoPalette, wantBackend: auto, auto: true}},
			{"algo-" + legacy.Algo, legacy, serveReq{palette: d, wantBackend: legacyBackend}},
		} {
			r := x.r
			if err := add(name+"/"+x.kind, "/v1/color", g, x.cr, &r); err != nil {
				return nil, err
			}
		}
	}
	for i := 0; i < sparse; i++ {
		var g *graph.Graph
		name := fmt.Sprintf("torus%d", i/2)
		if i%2 == 0 {
			g = relabel(graph.Torus(64, 64), rng)
		} else {
			g = graph.RandomRegular(2048, 6, rng)
			name = fmt.Sprintf("rr%d", i/2)
		}
		r := &serveReq{sharded: true, wantBackend: "greedy"}
		path := fmt.Sprintf("/v1/color?shards=%d", serveShards)
		if err := add(name+"/sharded", path, g, service.ColorRequest{}, r); err != nil {
			return nil, err
		}
		r.palette = r.g.MaxDegree() + 1
		net := local.New(r.g)
		want, _, err := shard.SolveSingle(net)
		net.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: single-process oracle: %w", r.name, err)
		}
		r.want = want
	}
	// Interleave the dense requests evenly with the sharded ones.
	var order []*serveReq
	per := 4 * dense / max(sparse, 1)
	d, s := 0, 0
	for d < dense*4 || s < sparse {
		for k := 0; k < per && d < dense*4; k++ {
			order = append(order, reqs[d])
			d++
		}
		if s < sparse {
			order = append(order, reqs[dense*4+s])
			s++
		}
	}
	return order, nil
}

// check verifies a miss's answer against the benchmark's own oracles.
func (q *serveReq) check(resp *service.ColorResponse) error {
	if resp.State != "done" {
		return fmt.Errorf("%s: state %q: %s", q.name, resp.State, resp.Error)
	}
	if resp.Cached {
		return fmt.Errorf("%s: a miss was answered from the cache", q.name)
	}
	if resp.Backend != q.wantBackend {
		return fmt.Errorf("%s: backend %q, want %q", q.name, resp.Backend, q.wantBackend)
	}
	if err := checkProper(q.g.N(), q.g.Neighbors, resp.Colors, q.palette); err != nil {
		return fmt.Errorf("%s: %w", q.name, err)
	}
	if q.sharded {
		if err := sameColors(resp.Colors, q.want); err != nil {
			return fmt.Errorf("%s: sharded run differs from shard.SolveSingle: %w", q.name, err)
		}
	}
	return nil
}

// sameAnswer checks a cache hit or a job read against the miss it repeats.
func sameAnswer(name string, got, miss *service.ColorResponse, cached bool) error {
	if got.State != "done" || got.Cached != cached {
		return fmt.Errorf("%s: state %q cached %t, want done cached %t", name, got.State, got.Cached, cached)
	}
	if got.Rounds != miss.Rounds || got.Backend != miss.Backend {
		return fmt.Errorf("%s: rounds %d backend %q, the miss had %d %q", name, got.Rounds, got.Backend, miss.Rounds, miss.Backend)
	}
	if err := sameColors(got.Colors, miss.Colors); err != nil {
		return fmt.Errorf("%s: differs from its miss: %w", name, err)
	}
	return nil
}

// serveEnv is one set-up: worker and coordinator instances plus the client.
type serveEnv struct {
	worker, coord *instance
	cl            *client
	reqs          []*serveReq
}

func (e *serveEnv) stop() {
	e.cl.close()
	e.coord.stop()
	e.worker.stop()
	http.DefaultClient.CloseIdleConnections() // the coordinator's shard transport
}

// serveTrace accumulates the traced rounds' per-layer sums.
type serveTrace struct {
	ops, compute, misses, sharded, auto int
	runMS, overheadMS, respBytes        float64
	selectMS                            float64
	shardRounds, boundary               float64
	workerMS, coordMS, wireBytes        float64
	metrics                             deltas
}

func runServe(r *runner) error {
	var env *serveEnv
	teardown, err := r.setup(func() (func(), error) {
		e := &serveEnv{}
		var err error
		if e.worker, err = startInstance(service.Config{Workers: 1}, "worker", r.tr); err != nil {
			return nil, err
		}
		e.coord, err = startInstance(service.Config{
			Workers:    2,
			CacheSize:  serveCacheSize,
			MaxJobs:    32,
			ShardAddrs: []string{e.worker.url},
		}, "coordinator", r.tr)
		if err != nil {
			e.worker.stop()
			return nil, err
		}
		e.cl = newClient(e.coord.url)
		rng := rand.New(rand.NewSource(r.seed))
		if e.reqs, err = serveInputs(rng, 8, 8); err != nil {
			e.stop()
			return nil, err
		}
		// Warm-up on inputs of their own, so the timed misses stay misses.
		warm, err := serveInputs(rand.New(rand.NewSource(^r.seed)), 2, 2)
		if err == nil {
			for _, q := range warm {
				if err = e.serveOne(r, q, nil, false, true); err != nil {
					break
				}
			}
		}
		if err != nil {
			e.stop()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		env = e
		return e.stop, nil
	})
	if err != nil {
		return err
	}
	defer teardown()

	acc := &serveTrace{metrics: deltas{}}
	err = r.loop(func(int) error {
		var before map[string]float64
		if r.tracing {
			var err error
			if before, err = env.cl.scrape(); err != nil {
				return err
			}
			env.coord.mw.on.Store(true)
			env.worker.mw.on.Store(true)
		}
		for i, q := range env.reqs {
			var a *serveTrace
			if r.tracing {
				a = acc
			}
			if err := env.serveOne(r, q, a, true, i%serveJobReadEvery == 0); err != nil {
				return err
			}
		}
		if r.tracing {
			env.coord.mw.on.Store(false)
			env.worker.mw.on.Store(false)
			after, err := env.cl.scrape()
			if err != nil {
				return err
			}
			acc.metrics.add(before, after)
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.finish()
	m := acc.metrics
	r.layer["backend.select_ms_per_op"] = perOp(acc.selectMS, acc.auto)
	r.layer["service.run_ms_per_op"] = perOp(acc.runMS, acc.compute)
	r.layer["service.overhead_ms_per_op"] = perOp(acc.overheadMS, acc.compute)
	r.layer["service.response_kb_per_op"] = perOp(acc.respBytes/1024, acc.ops)
	r.layer["service.cache_hits"] = m["deltaserved_cache_hits_total"]
	r.layer["service.cache_misses"] = m["deltaserved_cache_misses_total"]
	r.layer["shard.rounds_per_op"] = perOp(acc.shardRounds, acc.sharded)
	r.layer["shard.step_calls_per_op"] = perOp(m["deltaserved_shard_step_calls_total"], acc.sharded)
	r.layer["shard.boundary_updates_per_op"] = perOp(acc.boundary, acc.sharded)
	r.layer["shard.worker_ms_per_op"] = perOp(acc.workerMS, acc.sharded)
	r.layer["shard.wire_kb_per_op"] = perOp(acc.wireBytes/1024, acc.sharded)
	r.layer["shard.coordinator_ms_per_op"] = perOp(acc.coordMS, acc.sharded)
	for _, ph := range corePhases {
		r.layer[coreName(ph)+".rounds_per_op"] = perOp(m[fmt.Sprintf("deltaserved_phase_rounds_total{phase=%q}", ph)], acc.misses)
	}
	engine := m["deltaserved_engine_rounds_total"]
	active, skipped := m["deltaserved_engine_active_vertices_total"], m["deltaserved_engine_skipped_vertices_total"]
	r.layer["local.engine_rounds_per_op"] = perOp(engine, acc.compute)
	if engine > 0 {
		r.layer["local.sparse_round_frac"] = m["deltaserved_engine_sparse_rounds_total"] / engine
	}
	if active+skipped > 0 {
		r.layer["local.skipped_eval_frac"] = skipped / (active + skipped)
	}
	return nil
}

// serveOne sends a request's miss, its byte-identical repeat (a cache hit)
// and, with jobRead, a read of its retained job, checking each answer. With
// rec false (warm-up) nothing is recorded and the first failure is returned.
func (e *serveEnv) serveOne(r *runner, q *serveReq, acc *serveTrace, rec, jobRead bool) error {
	var opID int
	if acc != nil {
		opID = r.tr.newID()
		e.coord.mw.parent.Store(int64(opID))
	}
	var wBusy0 time.Duration
	var wWire0 int64
	if acc != nil && q.sharded {
		wBusy0, wWire0 = e.worker.mw.totals()
	}
	runID := 0
	if acc != nil {
		runID = r.tr.newID()
		e.worker.mw.parent.Store(int64(runID))
	}

	// The miss.
	var status int
	var body []byte
	start := time.Now()
	d, alloc, err := timedCall(func() error {
		var err error
		status, body, err = e.cl.do(http.MethodPost, q.path, q.body)
		return err
	})
	if err == nil {
		err = expect(status, http.StatusOK, body)
	}
	miss := &service.ColorResponse{}
	var bad error
	if err == nil {
		if err = json.Unmarshal(body, miss); err == nil {
			bad = q.check(miss)
		}
	}
	ok, werr := r.book(rec, computeOp, d, alloc, miss.Rounds, err, bad)
	if werr != nil {
		return fmt.Errorf("%s: %w", q.name, werr)
	}
	if !ok {
		return nil
	}
	if acc != nil {
		acc.ops++
		acc.compute++
		acc.respBytes += float64(len(body))
		acc.runMS += miss.ElapsedMS
		acc.overheadMS += float64(d)/1e6 - miss.ElapsedMS
		runEnd := e.coord.mw.lastEnd()
		runStart := runEnd.Add(-time.Duration(miss.ElapsedMS * 1e6))
		r.tr.add(runID, opID, "service/run", runStart, runEnd, map[string]float64{"elapsed_ms": miss.ElapsedMS})
		r.tr.add(opID, 0, "serve/"+q.name, start, start.Add(d), map[string]float64{"rounds": float64(miss.Rounds)})
		if q.sharded {
			busy, wire := e.worker.mw.totals()
			wms := float64(busy-wBusy0) / 1e6
			acc.sharded++
			acc.shardRounds += float64(miss.Rounds)
			acc.boundary += float64(miss.BoundaryUpdates)
			acc.workerMS += wms
			acc.coordMS += miss.ElapsedMS - wms
			acc.wireBytes += float64(wire - wWire0)
		} else {
			acc.misses++
		}
		if q.auto {
			t0 := time.Now()
			backend.Select(q.g, serverParams())
			acc.selectMS += float64(time.Since(t0)) / 1e6
			acc.auto++
		}
	}

	// The reads: the byte-identical repeat, then the retained job.
	reads := []struct {
		name, method, path string
		body               []byte
		cached             bool
	}{
		{q.name + "/hit", http.MethodPost, q.path, q.body, true},
		{q.name + "/job", http.MethodGet, "/v1/jobs/" + miss.JobID, nil, false},
	}
	if !jobRead {
		reads = reads[:1]
	}
	for _, rd := range reads {
		if acc != nil {
			opID = r.tr.newID()
			e.coord.mw.parent.Store(int64(opID))
		}
		start := time.Now()
		d, alloc, err := timedCall(func() error {
			var err error
			status, body, err = e.cl.do(rd.method, rd.path, rd.body)
			return err
		})
		if err == nil {
			err = expect(status, http.StatusOK, body)
		}
		got := &service.ColorResponse{}
		var bad error
		if err == nil {
			if err = json.Unmarshal(body, got); err == nil {
				bad = sameAnswer(rd.name, got, miss, rd.cached)
			}
		}
		ok, werr := r.book(rec, readOp, d, alloc, 0, err, bad)
		if werr != nil {
			return fmt.Errorf("%s: %w", rd.name, werr)
		}
		if ok && acc != nil {
			acc.ops++
			acc.respBytes += float64(len(body))
			r.tr.add(opID, 0, "serve/"+rd.name, start, start.Add(d), nil)
		}
	}
	return nil
}
