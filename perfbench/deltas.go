package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/ftspanner/ftspanner/internal/core"
	"github.com/ftspanner/ftspanner/internal/fault"
	"github.com/ftspanner/ftspanner/internal/gen"
	"github.com/ftspanner/ftspanner/internal/graph"
	"github.com/ftspanner/ftspanner/internal/service"
	"github.com/ftspanner/ftspanner/internal/store"
)

const sessFaults = 2

// session-deltas: each client holds its own session on one server and
// POSTs seeded delta batches to it. The benchmark mirrors every batch on its own
// graph.Mutable, so checkpoints can compare the session's spanner with a
// from-scratch greedy of the mirror.
type deltaBench struct {
	cfg *config
	srv *service.Server
	ts  *httptest.Server
	api api
	cl  [clients]deltaClient
}

type deltaClient struct {
	id      string // session ID
	initial *graph.Graph
	mir     *mirror
	next    int
	batches []core.Batch // every batch the session applied, in order
	recs    []deltaRec   // one per batch
	checks  []deltaCheck
	http    []float64 // ms, GET /healthz round trips on sampled traced ops
}

type deltaRec struct {
	op     float64 // ms, client-seen round trip
	traced bool
	reply  deltaReply
}

// deltaReply is the part of the POST /v1/sessions/{id}/deltas answer the
// per-layer metrics read.
type deltaReply struct {
	SuffixLen    int     `json:"suffix_len"`
	FullRebuild  bool    `json:"full_rebuild"`
	OracleReused bool    `json:"oracle_reused"`
	OracleBuilt  bool    `json:"oracle_built"`
	DurationMS   float64 `json:"duration_ms"`
}

// deltaCheck is a checkpoint: the mirror's graph and the session's spanner
// at the same batch.
type deltaCheck struct {
	batch   int
	mirror  *graph.Graph
	digest  string // the session's current-graph digest
	spanner string
}

// newDeltas runs the sessions on a memory-only server: with the store on,
// each batch's fsync made the session figures swing by a third between runs
// on a shared disk, so the per-batch store write is timed in the traced
// replay instead (store.put_ms).
func newDeltas(cfg *config, _ string) (bench, error) {
	srv, err := service.New(service.Config{Workers: 1, JobRetention: jobRetention})
	if err != nil {
		return nil, err
	}
	b := &deltaBench{cfg: cfg, srv: srv, ts: httptest.NewServer(srv)}
	b.api = api{base: b.ts.URL, hc: newHTTPClient()}
	for c := range b.cl {
		rng := subRand(cfg.seed, streamSessGraph, c)
		g, err := gen.ConnectedGNM(cfg.size.sessN, cfg.size.sessM, rng)
		if err == nil {
			g, err = gen.QuantizeWeights(g, weightLevels, rng)
		}
		var sb strings.Builder
		if err == nil {
			err = g.Encode(&sb)
		}
		var body []byte
		if err == nil {
			body, err = json.Marshal(service.SessionSpec{Graph: sb.String(), Stretch: stretch, Faults: sessFaults})
		}
		var data []byte
		if err == nil {
			data, err = b.api.call(http.MethodPost, "/v1/sessions", body)
		}
		var reply struct {
			ID string `json:"id"`
		}
		if err == nil {
			err = json.Unmarshal(data, &reply)
		}
		if err != nil {
			b.close()
			return nil, fmt.Errorf("session %d: %w", c, err)
		}
		b.cl[c] = deltaClient{id: reply.ID, initial: g, mir: newMirror(g)}
	}
	return b, nil
}

func (b *deltaBench) close() {
	b.ts.Close()
	b.srv.Close()
	b.api.hc.CloseIdleConnections()
}

func (b *deltaBench) op(c int, traced bool) (time.Duration, error) {
	cl := &b.cl[c]
	i := cl.next
	cl.next++
	batch := cl.mir.nextBatch(subRand(b.cfg.seed, streamSessOps, c, i))
	body, err := json.Marshal(batchRequest(batch))
	if err != nil {
		return 0, err
	}

	t0 := time.Now()
	data, err := b.api.call(http.MethodPost, "/v1/sessions/"+cl.id+"/deltas", body)
	if err != nil {
		return 0, err
	}
	d := time.Since(t0)

	var reply deltaReply
	if err := json.Unmarshal(data, &reply); err != nil {
		return 0, fmt.Errorf("deltas reply: %w", err)
	}
	cl.batches = append(cl.batches, batch)
	cl.recs = append(cl.recs, deltaRec{op: ms(d), traced: traced, reply: reply})
	if traced && i%4 == 0 {
		// The HTTP floor: a request the server answers without touching
		// the session, on the same connection pool and load.
		start := time.Now()
		if _, err := b.api.call(http.MethodGet, "/healthz", nil); err != nil {
			return 0, err
		}
		cl.http = append(cl.http, ms(time.Since(start)))
	}
	if len(cl.batches)%b.cfg.size.checkEvery == 0 {
		if err := b.checkpoint(c); err != nil {
			return 0, err
		}
	}
	return d, nil
}

// checkpoint records the session's spanner next to the mirror's graph;
// verify compares them after the window.
func (b *deltaBench) checkpoint(c int) error {
	cl := &b.cl[c]
	var sp struct {
		Digest  string `json:"digest"`
		Spanner string `json:"spanner"`
	}
	if err := b.api.getJSON("/v1/sessions/"+cl.id+"/spanner", &sp); err != nil {
		return err
	}
	mat, _ := cl.mir.m.Materialize()
	cl.checks = append(cl.checks, deltaCheck{batch: len(cl.batches), mirror: mat, digest: sp.Digest, spanner: sp.Spanner})
	return nil
}

// verify takes a final checkpoint per session and compares every
// checkpoint with a from-scratch greedy of the mirror graph.
func (b *deltaBench) verify() {
	for c := range b.cl {
		if err := b.checkpoint(c); err != nil {
			b.cfg.ck.post(fmt.Sprintf("session-deltas client %d final spanner", c), err.Error(), "a spanner")
		}
		for _, ck := range b.cl[c].checks {
			what := fmt.Sprintf("session-deltas client %d batch %d", c, ck.batch)
			b.cfg.ck.post(what+" graph", ck.digest, ck.mirror.Digest())
			want, err := core.Greedy(ck.mirror, core.Options{Stretch: stretch, Faults: sessFaults, Mode: fault.Vertices})
			if err != nil {
				b.cfg.ck.post(what, "greedy error: "+err.Error(), "a spanner")
				continue
			}
			got, err := graph.Decode(strings.NewReader(ck.spanner))
			if err != nil {
				b.cfg.ck.post(what, "undecodable spanner: "+err.Error(), want.Spanner.Digest())
				continue
			}
			b.cfg.ck.post(what+" spanner", got.Digest(), want.Spanner.Digest())
		}
	}
}

// layers replays each session's batch stream on a fresh core.Incremental
// and times, per batch, ApplyBatch and — on an even sample of the traced
// batches — Current, the current graph's Digest and the store.Put of the
// batch's result record (what a session with the store on writes per
// batch). Those times are paired with the traced round trips of the same
// batches; the layer sum adds the measured HTTP floor.
func (b *deltaBench) layers() map[string]float64 {
	m := zeroLayers()
	st, err := store.Open(filepath.Join(b.cfg.dir, "replay-store"), -1)
	if err != nil {
		return m
	}
	defer st.Close()
	var httpFloor []float64
	for _, cl := range b.cl {
		httpFloor = append(httpFloor, cl.http...)
	}
	floor := median(httpFloor)
	// The sessions replay concurrently, as they ran, so the replayed layers
	// see contention like the round trips they explain.
	var reps [clients]replay
	var wg sync.WaitGroup
	for c := range b.cl {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			reps[c] = b.cl[c].replay(st, floor)
		}(c)
	}
	wg.Wait()
	var all replay
	for _, r := range reps {
		if r.err != nil {
			return m
		}
		all.merge(&r)
	}
	var snap service.MetricsSnapshot
	if err := b.api.getJSON("/metrics", &snap); err == nil {
		m["store.write_errors"] = float64(snap.StoreWriteErrors)
	}
	m["core.apply_batch_ms"] = median(all.apply)
	m["core.current_ms"] = median(all.current)
	m["graph.digest_ms"] = median(all.digest)
	m["store.put_ms"] = median(all.put)
	m["service.session_overhead_ms"] = median(all.overhead)
	m["service.http_ms"] = floor
	m["service.unattributed_ms"] = median(all.unattributed)
	m["service.layer_sum_ok"] = layerSumOK(median(all.unattributed), median(all.ops))
	m["core.suffix_len"] = ratio(all.suffix, all.n)
	m["core.full_rebuild_frac"] = ratio(all.full, all.n)
	m["core.oracle_reuse_frac"] = ratio(all.reused, all.reused+all.built)
	return m
}

// replay is one session's replayed layer times (ms) and reply counters,
// over its traced batches.
type replay struct {
	apply, overhead                         []float64 // every traced batch
	current, digest, ops, unattributed, put []float64 // sampled batches
	suffix, full, reused, built, n          float64
	err                                     error
}

func (r *replay) merge(q *replay) {
	r.apply = append(r.apply, q.apply...)
	r.overhead = append(r.overhead, q.overhead...)
	r.current = append(r.current, q.current...)
	r.digest = append(r.digest, q.digest...)
	r.ops = append(r.ops, q.ops...)
	r.unattributed = append(r.unattributed, q.unattributed...)
	r.put = append(r.put, q.put...)
	r.suffix += q.suffix
	r.full += q.full
	r.reused += q.reused
	r.built += q.built
	r.n += q.n
}

// replay applies the client's batch stream to a fresh core.Incremental,
// timing ApplyBatch on every batch and Current, Digest and a store Put on
// an even sample of the traced ones.
func (cl *deltaClient) replay(st *store.Store, floor float64) (r replay) {
	inc, err := core.NewIncremental(cl.initial, core.IncrementalOptions{
		Stretch: stretch, Faults: sessFaults, Mode: fault.Vertices,
	})
	if err != nil {
		r.err = err
		return r
	}
	traced := 0
	for _, rec := range cl.recs {
		if rec.traced {
			traced++
		}
	}
	stride := max(1, traced/replaySamples)
	seen := 0
	for k, batch := range cl.batches {
		start := time.Now()
		if _, err := inc.ApplyBatch(batch); err != nil {
			r.err = err
			return r
		}
		a := ms(time.Since(start))
		rec := cl.recs[k]
		if !rec.traced {
			continue
		}
		r.apply = append(r.apply, a)
		r.overhead = append(r.overhead, rec.op-a)
		r.suffix += float64(rec.reply.SuffixLen)
		if rec.reply.FullRebuild {
			r.full++
		}
		if rec.reply.OracleReused {
			r.reused++
		}
		if rec.reply.OracleBuilt {
			r.built++
		}
		r.n++
		if seen++; seen%stride != 0 {
			continue
		}
		start = time.Now()
		mat, kept, err := inc.Current()
		if err != nil {
			r.err = err
			return r
		}
		cur := ms(time.Since(start))
		start = time.Now()
		dg := mat.Digest()
		dig := ms(time.Since(start))
		r.current = append(r.current, cur)
		r.digest = append(r.digest, dig)
		r.ops = append(r.ops, rec.op)
		r.unattributed = append(r.unattributed, rec.op-(a+cur+dig+floor))
		if seen%(4*stride) == 0 {
			d, err := timePut(st, mat, kept, dg)
			if err != nil {
				r.err = err
				return r
			}
			r.put = append(r.put, d)
		}
	}
	return r
}

// replaySamples is about how many traced batches per session the replay
// materializes and digests; a quarter of them are also written to a store.
const replaySamples = 400

// timePut writes the result record of one session state to st, as the
// service's publish does with its store on, and returns the Put time.
func timePut(st *store.Store, mat *graph.Graph, kept []int, digest string) (float64, error) {
	spanner := graph.New(mat.NumVertices())
	for _, id := range kept {
		e := mat.Edge(id)
		spanner.MustAddEdge(e.U, e.V, e.Weight)
	}
	rec := &store.Record{
		Key:           "session|" + digest,
		NumVertices:   mat.NumVertices(),
		InputEdges:    mat.NumEdges(),
		SpannerDigest: spanner.Digest(),
		Kept:          kept,
	}
	start := time.Now()
	err := st.Put(rec)
	return ms(time.Since(start)), err
}

func (b *deltaBench) details() map[string]any {
	checks, batches := 0, 0
	var engine []float64
	for _, cl := range b.cl {
		checks += len(cl.checks)
		batches += len(cl.batches)
		for _, r := range cl.recs {
			engine = append(engine, r.reply.DurationMS)
		}
	}
	return map[string]any{
		"n": b.cfg.size.sessN, "m": b.cfg.size.sessM, "faults": sessFaults, "stretch": stretch,
		"sessions": clients, "batches": batches, "checkpoints": checks,
		"server_engine_p50_ms": finite(median(engine)),
	}
}

// ---- mirror ---------------------------------------------------------------

// mirror is the benchmark's copy of one session's graph: a graph.Mutable
// fed the same inserts and deletes in the same order (so it materializes
// to the session's graph), plus an index of live pairs by weight level for
// drawing deltas.
type mirror struct {
	m     *graph.Mutable
	n     int
	byW   map[float64][][2]int
	pos   map[[2]int]int
	level map[[2]int]float64
}

func newMirror(g *graph.Graph) *mirror {
	mr := &mirror{
		m:     graph.NewMutableFrom(g.Clone()),
		n:     g.NumVertices(),
		byW:   make(map[float64][][2]int),
		pos:   make(map[[2]int]int),
		level: make(map[[2]int]float64),
	}
	for _, e := range g.Edges() {
		mr.index(pair(e.U, e.V), e.Weight)
	}
	return mr
}

func pair(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

func (mr *mirror) index(p [2]int, w float64) {
	mr.pos[p] = len(mr.byW[w])
	mr.byW[w] = append(mr.byW[w], p)
	mr.level[p] = w
}

func (mr *mirror) unindex(p [2]int) {
	w := mr.level[p]
	list := mr.byW[w]
	i := mr.pos[p]
	last := list[len(list)-1]
	list[i] = last
	mr.pos[last] = i
	mr.byW[w] = list[:len(list)-1]
	delete(mr.pos, p)
	delete(mr.level, p)
}

// nextBatch draws one seeded batch and applies it to the mirror:
//   - 70%: one top-weight edge toggled (a live one deleted or a new one
//     inserted), which only touches the end of the scan order;
//   - 20%: four-edge churn across the top three weight levels;
//   - 10%: a mid-weight insert plus a mid-weight delete, which forces a
//     suffix repair over the upper half of the scan.
func (mr *mirror) nextBatch(rng *rand.Rand) core.Batch {
	var b core.Batch
	touched := make(map[[2]int]bool)
	r := rng.Float64()
	switch {
	case r < 0.7:
		mr.toggle(rng, weightLevels, touched, &b)
	case r < 0.9:
		for k := 0; k < 4; k++ {
			mr.toggle(rng, float64(weightLevels-rng.Intn(3)), touched, &b)
		}
	default:
		mid := float64(weightLevels / 2)
		mr.insert(rng, mid, touched, &b)
		mr.remove(rng, mid, touched, &b)
	}
	return b
}

// toggle deletes a live edge of weight w or inserts a new one, evenly.
func (mr *mirror) toggle(rng *rand.Rand, w float64, touched map[[2]int]bool, b *core.Batch) {
	if rng.Intn(2) == 0 && mr.remove(rng, w, touched, b) {
		return
	}
	mr.insert(rng, w, touched, b)
}

// insert adds an edge of weight w between a random non-adjacent pair; on
// a graph too dense to find one quickly it adds nothing.
func (mr *mirror) insert(rng *rand.Rand, w float64, touched map[[2]int]bool, b *core.Batch) {
	for try := 0; try < 64*mr.n; try++ {
		u, v := rng.Intn(mr.n), rng.Intn(mr.n)
		p := pair(u, v)
		if u == v || touched[p] {
			continue
		}
		if _, live := mr.level[p]; live {
			continue
		}
		touched[p] = true
		if _, err := mr.m.Insert(u, v, w); err != nil {
			panic(fmt.Sprintf("mirror insert %d-%d: %v", u, v, err)) // a non-adjacent pair always inserts
		}
		mr.index(p, w)
		b.Deltas = append(b.Deltas, core.Delta{Op: core.DeltaInsert, U: u, V: v, Weight: w})
		return
	}
}

// remove deletes a random live edge of weight w not yet touched by the
// batch; it reports false when there is none.
func (mr *mirror) remove(rng *rand.Rand, w float64, touched map[[2]int]bool, b *core.Batch) bool {
	list := mr.byW[w]
	for try := 0; try < 8 && len(list) > 0; try++ {
		p := list[rng.Intn(len(list))]
		if touched[p] {
			continue
		}
		touched[p] = true
		if _, err := mr.m.Delete(p[0], p[1]); err != nil {
			panic(fmt.Sprintf("mirror delete %d-%d: %v", p[0], p[1], err)) // indexed pairs are live
		}
		mr.unindex(p)
		b.Deltas = append(b.Deltas, core.Delta{Op: core.DeltaDelete, U: p[0], V: p[1]})
		return true
	}
	return false
}

// deltaJSON is one entry of the POST /v1/sessions/{id}/deltas body.
type deltaJSON struct {
	Op     string  `json:"op"`
	U      int     `json:"u"`
	V      int     `json:"v"`
	Weight float64 `json:"weight,omitempty"`
}

func batchRequest(b core.Batch) map[string]any {
	out := make([]deltaJSON, len(b.Deltas))
	for i, d := range b.Deltas {
		out[i] = deltaJSON{Op: "delete", U: d.U, V: d.V}
		if d.Op == core.DeltaInsert {
			out[i] = deltaJSON{Op: "insert", U: d.U, V: d.V, Weight: d.Weight}
		}
	}
	return map[string]any{"deltas": out}
}
