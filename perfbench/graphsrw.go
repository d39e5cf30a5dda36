package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"deltacoloring/internal/durable"
	"deltacoloring/internal/dynamic"
	"deltacoloring/internal/graph"
	"deltacoloring/internal/service"
)

// Every fifth batch of a store is large, so full recomputes are a fifth of
// the batches: p90 sits in the middle of that class and p50 inside the small
// batches, each away from a class boundary and from the sparse tail, where
// a share of ops slowed by a busy host would move it most.
const (
	// rwBatches is how many mutation batches each store takes per round.
	rwBatches = 48
	// rwLargeEvery spaces the batches that cross the incremental ceiling.
	rwLargeEvery = 5
	// rwWarmBatches is how many batches per store the warm-up runs.
	rwWarmBatches = 8
	// rwReadsPerWrite is how many coloring reads follow each batch.
	rwReadsPerWrite = 4
	// rwCheckpointEvery is the durable stores' checkpoint cadence in batches.
	rwCheckpointEvery = rwBatches
	// rwFsyncInterval is the WAL's background flush cadence, the common
	// once-a-second policy. The store holds its lock across that fsync, so
	// at the 100 ms default a busy disk stalls a varying share of batches
	// and p90 swung between runs by more than half its median.
	rwFsyncInterval = time.Second
)

// shadow is the benchmark's own copy of a store's graph, against which every
// read is checked.
type shadow struct {
	adj     [][]int32
	version int64
}

func newShadow(g *graph.Graph) *shadow {
	s := &shadow{adj: make([][]int32, g.N()), version: 1}
	for v := range s.adj {
		s.adj[v] = append([]int32(nil), g.Neighbors(v)...)
	}
	return s
}

func (s *shadow) nbrs(v int) []int32 { return s.adj[v] }

func (s *shadow) apply(batch []dynamic.Mutation) {
	for _, m := range batch {
		switch m.Op {
		case dynamic.OpAddEdge:
			s.adj[m.U] = append(s.adj[m.U], int32(m.V))
			s.adj[m.V] = append(s.adj[m.V], int32(m.U))
		case dynamic.OpRemoveEdge:
			s.adj[m.U] = dropInt32(s.adj[m.U], int32(m.V))
			s.adj[m.V] = dropInt32(s.adj[m.V], int32(m.U))
		}
	}
	s.version++
}

func dropInt32(xs []int32, x int32) []int32 {
	for i, y := range xs {
		if y == x {
			xs[i] = xs[len(xs)-1]
			return xs[:len(xs)-1]
		}
	}
	return xs
}

// rwStore is one durable graph of the workload: its creation body, its fixed
// batch sequence, and the state of the current round.
type rwStore struct {
	name    string
	g       *graph.Graph
	create  []byte
	batches [][]dynamic.Mutation
	bodies  [][]byte
	kinds   []string

	id  string
	sh  *shadow
	off int // index of the next batch
}

// edgeKey packs an undirected edge.
func edgeKey(u, v int) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

// genBatches draws the store's batch sequence from rng by simulating it on
// an edge set: each batch half removes present edges and half adds absent
// ones, so m stays put. Every rwLargeEvery-th batch edits n/5 edges, past
// the store's 25% incremental ceiling. Of the others, every third is
// localized inside a BFS ball and the rest range over the whole graph; the
// sizes of each of these two kinds are evenly spaced over 0.1–1% of m, in
// seeded order, so every seed draws the same amount of work.
func (st *rwStore) genBatches(rng *rand.Rand) {
	g := st.g
	n, m := g.N(), g.M()
	adj := newShadow(g).adj
	edges := map[uint64]bool{}
	for _, e := range g.Edges() {
		edges[edgeKey(e.U, e.V)] = true
	}
	kinds := make([]string, rwBatches)
	count := map[string]int{}
	for b := range kinds {
		switch {
		case b%rwLargeEvery == rwLargeEvery/2:
			kinds[b] = "large"
		case b%3 == 0:
			kinds[b] = "local"
		default:
			kinds[b] = "uniform"
		}
		count[kinds[b]]++
	}
	sizes := map[string][]int{}
	for j := 0; j < count["large"]; j++ {
		sizes["large"] = append(sizes["large"], n/5)
	}
	for _, kind := range []string{"local", "uniform"} {
		c := count[kind]
		for j := 0; j < c; j++ {
			sizes[kind] = append(sizes[kind], m/1000+j*(m/100-m/1000)/max(c-1, 1))
		}
		rng.Shuffle(c, func(i, j int) { sizes[kind][i], sizes[kind][j] = sizes[kind][j], sizes[kind][i] })
	}
	for _, kind := range kinds {
		k := sizes[kind][0]
		sizes[kind] = sizes[kind][1:]
		pool := []int(nil) // candidate vertices; nil = all
		if kind == "local" {
			// The large batches rewire the graph and can leave vertices
			// isolated, so a ball is drawn again until it is full size.
			for try := 0; try == 0 || (len(pool) < 2*k+16 && try < 64); try++ {
				pool = ball(adj, rng.Intn(n), 2*k+16)
			}
		}
		pick := func() int {
			if pool == nil {
				return rng.Intn(n)
			}
			return pool[rng.Intn(len(pool))]
		}
		inBall := map[int]bool{}
		for _, v := range pool {
			inBall[v] = true
		}
		touched := map[uint64]bool{}
		var batch []dynamic.Mutation
		for tries := 0; len(batch) < k && tries < 100*k; tries++ {
			u := pick()
			if len(batch)%2 == 0 { // remove a present edge at u
				if len(adj[u]) == 0 {
					continue
				}
				v := int(adj[u][rng.Intn(len(adj[u]))])
				key := edgeKey(u, v)
				if touched[key] || (pool != nil && !inBall[v]) {
					continue
				}
				touched[key] = true
				delete(edges, key)
				adj[u] = dropInt32(adj[u], int32(v))
				adj[v] = dropInt32(adj[v], int32(u))
				batch = append(batch, dynamic.Mutation{Op: dynamic.OpRemoveEdge, U: u, V: v})
				continue
			}
			v := pick()
			key := edgeKey(u, v)
			if u == v || edges[key] || touched[key] {
				continue
			}
			touched[key] = true
			edges[key] = true
			adj[u] = append(adj[u], int32(v))
			adj[v] = append(adj[v], int32(u))
			batch = append(batch, dynamic.Mutation{Op: dynamic.OpAddEdge, U: u, V: v})
		}
		st.batches = append(st.batches, batch)
	}
	st.kinds = kinds
}

// ball returns the first size vertices of a BFS from c.
func ball(adj [][]int32, c, size int) []int {
	seen := map[int]bool{c: true}
	out := []int{c}
	for i := 0; i < len(out) && len(out) < size; i++ {
		for _, w := range adj[out[i]] {
			if !seen[int(w)] {
				seen[int(w)] = true
				out = append(out, int(w))
			}
		}
	}
	return out
}

// rwInputs builds the two stores: a 128×128 torus with permuted labels and a
// random 4-regular graph, both with n=16384 and m=32768, each with its batch
// sequence.
func rwInputs(seed int64) ([]*rwStore, error) {
	rng := rand.New(rand.NewSource(seed))
	stores := []*rwStore{
		{name: "torus", g: relabel(graph.Torus(128, 128), rng)},
		{name: "rr", g: graph.RandomRegular(128*128, 4, rng)},
	}
	for _, st := range stores {
		spec := &service.GraphSpec{N: st.g.N()}
		for _, e := range st.g.Edges() {
			spec.Edges = append(spec.Edges, [2]int{e.U, e.V})
		}
		var err error
		if st.create, err = json.Marshal(&service.CreateGraphRequest{Graph: spec}); err != nil {
			return nil, err
		}
		st.genBatches(rng)
		for _, b := range st.batches {
			body, err := json.Marshal(&service.MutateRequest{Mutations: b})
			if err != nil {
				return nil, err
			}
			st.bodies = append(st.bodies, body)
		}
	}
	return stores, nil
}

// rwEnv is one set-up: a durable server on its own data dir and the client.
type rwEnv struct {
	srv    *instance
	cl     *client
	dir    string
	stores []*rwStore
}

func (e *rwEnv) stop() {
	e.cl.close()
	e.srv.stop()
	_ = os.RemoveAll(e.dir) // scratch state under the run's own directory
}

// reset replaces every store by a fresh one built from its initial graph,
// so each round replays the same batches on the same state.
func (e *rwEnv) reset() error {
	for _, st := range e.stores {
		if st.id != "" {
			status, body, err := e.cl.do(http.MethodDelete, "/v1/graphs/"+st.id, nil)
			if err != nil {
				return err
			}
			if err := expect(status, http.StatusNoContent, body); err != nil {
				return fmt.Errorf("delete %s: %w", st.name, err)
			}
		}
		status, body, err := e.cl.do(http.MethodPost, "/v1/graphs", st.create)
		if err != nil {
			return err
		}
		if err := expect(status, http.StatusCreated, body); err != nil {
			return fmt.Errorf("create %s: %w", st.name, err)
		}
		resp := &service.GraphResponse{}
		if err := json.Unmarshal(body, resp); err != nil {
			return err
		}
		st.id, st.sh, st.off = resp.ID, newShadow(st.g), 0
	}
	return nil
}

// waitReady polls /readyz until durable recovery has finished.
func (e *rwEnv) waitReady() error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		status, _, err := e.cl.do(http.MethodGet, "/readyz", nil)
		if err == nil && status == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not ready: status %d err %v", status, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// rwTrace accumulates the traced rounds' per-layer sums.
type rwTrace struct {
	batches, reads       int
	recolorMS, rebuildMS float64
	recolored, rounds    float64
	incremental          int
	readBytes            float64
	ckptBatches          int
	ckptMS               float64
	lastCheckpoints      float64
	metrics              deltas
}

func runGraphsRW(r *runner) error {
	var env *rwEnv
	built := 0
	teardown, err := r.setup(func() (func(), error) {
		built++
		e := &rwEnv{dir: filepath.Join(r.out, fmt.Sprintf("data-%d-%d", os.Getpid(), built))}
		if err := os.RemoveAll(e.dir); err != nil {
			return nil, err
		}
		var err error
		e.srv, err = startInstance(service.Config{
			Workers:         2,
			DataDir:         e.dir,
			Fsync:           durable.FsyncInterval,
			FsyncInterval:   rwFsyncInterval,
			CheckpointEvery: rwCheckpointEvery,
		}, "server", r.tr)
		if err != nil {
			return nil, err
		}
		e.cl = newClient(e.srv.url)
		if err = e.waitReady(); err == nil {
			e.stores, err = rwInputs(r.seed)
		}
		if err == nil {
			// Warm-up: the first batches of an untimed round.
			err = e.round(r, nil, rwWarmBatches, false)
		}
		if err != nil {
			e.stop()
			return nil, err
		}
		env = e
		return e.stop, nil
	})
	if err != nil {
		return err
	}
	defer teardown()

	acc := &rwTrace{metrics: deltas{}}
	err = r.loop(func(int) error {
		var a *rwTrace
		if r.tracing {
			a = acc
		}
		return env.round(r, a, rwBatches, true)
	})
	if err != nil {
		return err
	}
	r.finish()
	m := acc.metrics
	r.layer["dynamic.recolor_ms_per_batch"] = perOp(acc.recolorMS, acc.batches)
	r.layer["dynamic.rebuild_ms_per_batch"] = perOp(acc.rebuildMS, acc.batches)
	r.layer["dynamic.recolored_per_batch"] = perOp(acc.recolored, acc.batches)
	r.layer["dynamic.rounds_per_batch"] = perOp(acc.rounds, acc.batches)
	r.layer["dynamic.incremental_frac"] = perOp(float64(acc.incremental), acc.batches)
	r.layer["dynamic.read_kb_per_op"] = perOp(acc.readBytes/1024, acc.reads)
	r.layer["durable.wal_bytes_per_batch"] = perOp(m["deltaserved_wal_append_bytes_total"], acc.batches)
	r.layer["durable.fsyncs"] = m["deltaserved_wal_fsyncs_total"]
	r.layer["durable.checkpoints"] = m["deltaserved_wal_checkpoints_total"]
	r.layer["durable.checkpoint_batch_ms"] = perOp(acc.ckptMS, acc.ckptBatches)
	return nil
}

// round resets the stores, then gives each store its first batches in
// turn, every batch followed by reads of both stores. With rec false
// (warm-up) nothing is recorded and the first failure is returned.
func (e *rwEnv) round(r *runner, acc *rwTrace, batches int, rec bool) error {
	if err := e.reset(); err != nil {
		return err
	}
	var before map[string]float64
	if acc != nil {
		var err error
		if before, err = e.cl.scrape(); err != nil {
			return err
		}
		acc.lastCheckpoints = before["deltaserved_wal_checkpoints_total"]
		e.srv.mw.on.Store(true)
	}
	for b := 0; b < batches; b++ {
		for si, st := range e.stores {
			if err := e.write(r, st, acc, rec); err != nil {
				return err
			}
			other := e.stores[(si+1)%len(e.stores)]
			for k := 0; k < rwReadsPerWrite; k++ {
				target := st
				if k%2 == 1 {
					target = other
				}
				if err := e.read(r, target, acc, rec); err != nil {
					return err
				}
			}
		}
	}
	if acc != nil {
		e.srv.mw.on.Store(false)
		after, err := e.cl.scrape()
		if err != nil {
			return err
		}
		acc.metrics.add(before, after)
	}
	return nil
}

// write applies the store's next batch and checks the acknowledgement.
func (e *rwEnv) write(r *runner, st *rwStore, acc *rwTrace, rec bool) error {
	batch := st.batches[st.off]
	body := st.bodies[st.off]
	kind := st.kinds[st.off]
	st.off++
	opID := 0
	if acc != nil {
		opID = r.tr.newID()
		e.srv.mw.parent.Store(int64(opID))
	}
	var status int
	var resp []byte
	start := time.Now()
	d, alloc, err := timedCall(func() error {
		var err error
		status, resp, err = e.cl.do(http.MethodPost, "/v1/graphs/"+st.id+"/mutations", body)
		return err
	})
	if err == nil {
		err = expect(status, http.StatusOK, resp)
	}
	mr := &service.MutateResponse{}
	var bad error
	if err == nil {
		if err = json.Unmarshal(resp, mr); err == nil && mr.Result == nil {
			err = fmt.Errorf("no result: %s", mr.Error)
		}
	}
	if err == nil {
		st.sh.apply(batch)
		res := mr.Result
		delta := maxDegree(len(st.sh.adj), st.sh.nbrs)
		switch {
		case !mr.Healthy:
			bad = fmt.Errorf("%s: store unhealthy after batch %d", st.name, st.off-1)
		case res.Version != st.sh.version:
			bad = fmt.Errorf("%s: version %d, want %d", st.name, res.Version, st.sh.version)
		case res.Mutations != len(batch):
			bad = fmt.Errorf("%s: %d mutations acknowledged, sent %d", st.name, res.Mutations, len(batch))
		case res.NumColors > delta+1:
			bad = fmt.Errorf("%s: palette %d above Δ+1 = %d", st.name, res.NumColors, delta+1)
		}
	}
	rounds := 0
	if mr.Result != nil {
		rounds = mr.Result.Rounds
	}
	ok, werr := r.book(rec, computeOp, d, alloc, rounds, err, bad)
	if werr != nil {
		return fmt.Errorf("%s batch %d: %w", st.name, st.off-1, werr)
	}
	if !ok || acc == nil {
		return nil
	}
	res := mr.Result
	recolorMS := float64(res.RecolorNanos) / 1e6
	acc.batches++
	acc.recolorMS += recolorMS
	acc.rebuildMS += float64(d)/1e6 - recolorMS
	acc.recolored += float64(res.Recolored)
	acc.rounds += float64(res.Rounds)
	if res.Mode == dynamic.ModeIncremental {
		acc.incremental++
	}
	hEnd := e.srv.mw.lastEnd()
	r.tr.add(0, opID, "dynamic/recolor", hEnd.Add(-time.Duration(res.RecolorNanos)), hEnd,
		map[string]float64{"recolored": float64(res.Recolored), "rounds": float64(res.Rounds)})
	r.tr.add(opID, 0, "graphs_rw/"+st.name+"/"+kind, start, start.Add(d),
		map[string]float64{"mutations": float64(len(batch))})
	after, err := e.cl.scrape()
	if err != nil {
		return err
	}
	if c := after["deltaserved_wal_checkpoints_total"]; c > acc.lastCheckpoints {
		acc.ckptBatches++
		acc.ckptMS += float64(d) / 1e6
		acc.lastCheckpoints = c
	}
	return nil
}

// read fetches the store's coloring and checks it on the shadow graph at the
// version the store reports.
func (e *rwEnv) read(r *runner, st *rwStore, acc *rwTrace, rec bool) error {
	opID := 0
	if acc != nil {
		opID = r.tr.newID()
		e.srv.mw.parent.Store(int64(opID))
	}
	var status int
	var resp []byte
	start := time.Now()
	d, alloc, err := timedCall(func() error {
		var err error
		status, resp, err = e.cl.do(http.MethodGet, "/v1/graphs/"+st.id+"/coloring", nil)
		return err
	})
	if err == nil {
		err = expect(status, http.StatusOK, resp)
	}
	cr := &service.ColoringResponse{}
	var bad error
	if err == nil {
		if err = json.Unmarshal(resp, cr); err == nil {
			bad = checkRead(st, cr)
		}
	}
	ok, werr := r.book(rec, readOp, d, alloc, 0, err, bad)
	if werr != nil {
		return fmt.Errorf("%s read: %w", st.name, werr)
	}
	if ok && acc != nil {
		acc.reads++
		acc.readBytes += float64(len(resp))
		r.tr.add(opID, 0, "graphs_rw/"+st.name+"/read", start, start.Add(d), nil)
	}
	return nil
}

// checkRead verifies one served coloring against the shadow graph.
func checkRead(st *rwStore, cr *service.ColoringResponse) error {
	n := len(st.sh.adj)
	switch {
	case cr.Stale:
		return fmt.Errorf("%s: stale coloring served", st.name)
	case cr.Version != st.sh.version:
		return fmt.Errorf("%s: version %d, the shadow is at %d", st.name, cr.Version, st.sh.version)
	case cr.N != n:
		return fmt.Errorf("%s: n=%d, the shadow has %d", st.name, cr.N, n)
	}
	if d := maxDegree(n, st.sh.nbrs); cr.NumColors > d+1 {
		return fmt.Errorf("%s: palette %d above Δ+1 = %d", st.name, cr.NumColors, d+1)
	}
	if err := checkProper(n, st.sh.nbrs, cr.Colors, cr.NumColors); err != nil {
		return fmt.Errorf("%s at version %d: %w", st.name, cr.Version, err)
	}
	return nil
}
