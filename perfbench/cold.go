package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"github.com/ftspanner/ftspanner/internal/core"
	"github.com/ftspanner/ftspanner/internal/fault"
	"github.com/ftspanner/ftspanner/internal/gen"
	"github.com/ftspanner/ftspanner/internal/graph"
	"github.com/ftspanner/ftspanner/internal/obs"
	"github.com/ftspanner/ftspanner/internal/service"
)

// jobs-cold: each client POSTs a never-seen inline graph to one server,
// follows /events to done and GETs /spanner. Every op is a build.
type coldBench struct {
	cfg   *config
	srv   *service.Server
	ts    *httptest.Server
	api   api
	cl    [clients]coldClient
	first coldSample // the set-up's first job, checked with the samples
}

type coldClient struct {
	next    int
	offset  int // seeded phase of the one-in-sampleEvery correctness sample
	samples []coldSample
	traces  []coldTrace
}

// coldSample is one job output kept for the sequential-greedy check.
type coldSample struct {
	input   *graph.Graph
	mode    fault.Mode
	spanner string
}

// coldTrace is one traced op: client timings, the job's lifecycle spans
// and build counters.
type coldTrace struct {
	op, submit, fetch     float64 // ms, client-timed
	queue, build, persist float64 // ms, from GET /v1/jobs/{id}/trace
	decode, digest        float64 // ms, graph.Decode and Digest on the input; sampled
	sampled, parallel     bool
	stats                 jobStats
}

const coldWorkers = 2 * clients

// jobStats is the part of GET /v1/jobs/{id} the per-layer metrics read.
type jobStats struct {
	OracleCalls   int64 `json:"oracle_calls"`
	Dijkstras     int64 `json:"dijkstras"`
	WitnessHits   int64 `json:"witness_hits"`
	WitnessMisses int64 `json:"witness_misses"`
	SpecQueries   int64 `json:"spec_queries"`
	SpecWaste     int64 `json:"spec_waste"`
	PipelineDepth int   `json:"pipeline_depth"`
}

// newCold runs coldWorkers workers. A worker holds its slot through the
// job's store write, which ends after the done event, so with only as many
// workers as clients each op would queue behind the previous job's fsync
// and the figures would follow the disk, not the build.
//
// Set-up ends when the new server has answered its first job: a fixed
// sequential VFT build of the seed's first-job graph, followed to done and
// fetched. Starting the server alone takes about 0.2 ms of syscalls and
// goroutine starts, whose median moved by 30% between two sets of runs of
// the same code; the first job puts a build behind it, as steady as the
// ops, so set-up time is the time to a started server's first spanner.
func newCold(cfg *config, dir string) (bench, error) {
	srv, err := service.New(service.Config{Workers: coldWorkers, StoreDir: dir, JobRetention: jobRetention})
	if err != nil {
		return nil, err
	}
	b := &coldBench{cfg: cfg, srv: srv, ts: httptest.NewServer(srv)}
	b.api = api{base: b.ts.URL, hc: newHTTPClient()}
	for c := range b.cl {
		b.cl[c].offset = subRand(cfg.seed, streamCold, c, -1).Intn(cfg.size.sampleEvery)
	}
	if err := b.firstJob(); err != nil {
		b.close()
		return nil, fmt.Errorf("first job: %w", err)
	}
	return b, nil
}

// firstJob runs the set-up's job and keeps its output for verify.
func (b *coldBench) firstJob() error {
	g, text, err := b.graph(subRand(b.cfg.seed, streamColdFirst))
	if err != nil {
		return err
	}
	body, err := json.Marshal(service.JobSpec{Graph: text, Stretch: stretch, Faults: 2, Mode: "vertex"})
	if err != nil {
		return err
	}
	sub, err := b.api.submitAndWait(body)
	if err != nil {
		return err
	}
	var sp spannerReply
	if err := b.api.getJSON("/v1/jobs/"+sub.ID+"/spanner", &sp); err != nil {
		return err
	}
	b.first = coldSample{input: g, mode: fault.Vertices, spanner: sp.Spanner}
	return nil
}

func (b *coldBench) close() {
	b.ts.Close()
	b.srv.Close()
	b.api.hc.CloseIdleConnections()
}

// input derives client c's i-th job: a connected G(n, m) graph with
// quantized weights, VFT or EFT at 3:1, and parallelism 2 (pipeline depth
// left to the server's tuner) on half the jobs. Both mixes are seeded
// draws per job, not alternations, so concurrent clients' parallel builds
// do not lock into or out of step with each other for a whole run.
func (b *coldBench) input(c, i int) (*graph.Graph, string, fault.Mode, bool, []byte, error) {
	rng := subRand(b.cfg.seed, streamCold, c, i)
	g, text, err := b.graph(rng)
	if err != nil {
		return nil, "", 0, false, nil, err
	}
	mode, modeName := fault.Vertices, "vertex"
	if rng.Intn(4) == 0 {
		mode, modeName = fault.Edges, "edge"
	}
	spec := service.JobSpec{Graph: text, Stretch: stretch, Faults: 2, Mode: modeName}
	parallel := rng.Intn(2) == 0
	if parallel {
		spec.Parallelism = 2
	}
	body, err := json.Marshal(spec)
	return g, spec.Graph, mode, parallel, body, err
}

// graph draws a connected G(n, m) graph with quantized weights from rng
// and returns it with its text encoding.
func (b *coldBench) graph(rng *rand.Rand) (*graph.Graph, string, error) {
	g, err := gen.ConnectedGNM(b.cfg.size.coldN, b.cfg.size.coldM, rng)
	if err != nil {
		return nil, "", err
	}
	if g, err = gen.QuantizeWeights(g, weightLevels, rng); err != nil {
		return nil, "", err
	}
	var sb strings.Builder
	if err := g.Encode(&sb); err != nil {
		return nil, "", err
	}
	return g, sb.String(), nil
}

func (b *coldBench) op(c int, traced bool) (time.Duration, error) {
	cl := &b.cl[c]
	i := cl.next
	cl.next++
	g, text, mode, parallel, body, err := b.input(c, i)
	if err != nil {
		return 0, err
	}

	t0 := time.Now()
	data, err := b.api.call(http.MethodPost, "/v1/jobs", body)
	if err != nil {
		return 0, err
	}
	var sub submitReply
	if err := json.Unmarshal(data, &sub); err != nil {
		return 0, fmt.Errorf("submit reply: %w", err)
	}
	state, err := b.api.followEvents(sub.ID)
	if err != nil {
		return 0, err
	}
	if state != "done" {
		return 0, fmt.Errorf("job %s ended %s", sub.ID, state)
	}
	t2 := time.Now()
	data, err = b.api.call(http.MethodGet, "/v1/jobs/"+sub.ID+"/spanner", nil)
	if err != nil {
		return 0, err
	}
	t3 := time.Now()

	if (i+cl.offset)%b.cfg.size.sampleEvery == 0 {
		var sp spannerReply
		if err := json.Unmarshal(data, &sp); err != nil {
			return 0, fmt.Errorf("spanner reply: %w", err)
		}
		cl.samples = append(cl.samples, coldSample{input: g, mode: mode, spanner: sp.Spanner})
	}
	if traced {
		tr := coldTrace{op: ms(t3.Sub(t0)), fetch: ms(t3.Sub(t2)), parallel: parallel}
		if err := b.readTrace(sub.ID, t0, &tr); err != nil {
			return 0, err
		}
		// The graph layer's share, timed from outside on one op in four.
		if i%4 == 0 {
			start := time.Now()
			dg, err := graph.Decode(strings.NewReader(text))
			if err != nil {
				return 0, err
			}
			tr.decode = ms(time.Since(start))
			start = time.Now()
			_ = dg.Digest()
			tr.digest = ms(time.Since(start))
			tr.sampled = true
		}
		cl.traces = append(cl.traces, tr)
	}
	return t3.Sub(t0), nil
}

// readTrace fills tr from the job's status (build counters) and lifecycle
// trace. The persist span closes after the done event, so an open trace is
// re-read until the root span has ended. The submit share is the time from
// sending the POST to the job's admission (its trace start): the build
// starts then, while the POST reply is still on its way.
func (b *coldBench) readTrace(id string, sent time.Time, tr *coldTrace) error {
	var st struct {
		Stats jobStats `json:"stats"`
	}
	if err := b.api.getJSON("/v1/jobs/"+id, &st); err != nil {
		return err
	}
	tr.stats = st.Stats
	var snap obs.TraceSnapshot
	for try := 0; ; try++ {
		snap = obs.TraceSnapshot{} // Open is omitted when false: decode into a fresh value
		if err := b.api.getJSON("/v1/jobs/"+id+"/trace", &snap); err != nil {
			return err
		}
		if !snap.Root.Open {
			break
		}
		if try == 200 {
			return fmt.Errorf("job %s trace still open", id)
		}
		time.Sleep(time.Millisecond)
	}
	tr.submit = ms(snap.Start.Sub(sent))
	for _, sp := range snap.Root.Children {
		switch sp.Name {
		case "queue-wait":
			tr.queue = sp.DurationMS
		case "build":
			tr.build = sp.DurationMS
		case "persist":
			tr.persist = sp.DurationMS
		}
	}
	return nil
}

// verify rebuilds the set-up's first job and every sampled input with a
// direct sequential core.Greedy and compares spanner digests with the
// service's answer.
func (b *coldBench) verify() {
	b.check("jobs-cold set-up's first job", b.first)
	for c := range b.cl {
		for k, s := range b.cl[c].samples {
			b.check(fmt.Sprintf("jobs-cold client %d sample %d", c, k), s)
		}
	}
}

func (b *coldBench) check(what string, s coldSample) {
	want, err := core.Greedy(s.input, core.Options{Stretch: stretch, Faults: 2, Mode: s.mode})
	if err != nil {
		b.cfg.ck.post(what, "greedy error: "+err.Error(), "a spanner")
		return
	}
	got, err := graph.Decode(strings.NewReader(s.spanner))
	if err != nil {
		b.cfg.ck.post(what, "undecodable spanner: "+err.Error(), want.Spanner.Digest())
		return
	}
	b.cfg.ck.post(what, got.Digest(), want.Spanner.Digest())
}

func (b *coldBench) layers() map[string]float64 {
	m := zeroLayers()
	var trs []coldTrace
	for _, cl := range b.cl {
		trs = append(trs, cl.traces...)
	}
	col := func(f func(coldTrace) float64, keep func(coldTrace) bool) []float64 { return column(trs, f, keep) }
	sampled := func(t coldTrace) bool { return t.sampled }

	m["graph.decode_ms"] = median(col(func(t coldTrace) float64 { return t.decode }, sampled))
	m["graph.digest_ms"] = median(col(func(t coldTrace) float64 { return t.digest }, sampled))
	m["service.submit_ms"] = median(col(func(t coldTrace) float64 { return t.submit }, nil))
	m["service.fetch_ms"] = median(col(func(t coldTrace) float64 { return t.fetch }, nil))
	m["service.queue_ms"] = median(col(func(t coldTrace) float64 { return t.queue }, nil))
	m["service.persist_ms"] = median(col(func(t coldTrace) float64 { return t.persist }, nil))
	m["core.build_ms"] = median(col(func(t coldTrace) float64 { return t.build }, nil))

	// Layer sum: submit + queue-wait + build + persist + fetch against the
	// client-seen op time, per op.
	unattributed := col(func(t coldTrace) float64 {
		return t.op - (t.submit + t.queue + t.build + t.persist + t.fetch)
	}, nil)
	op := median(col(func(t coldTrace) float64 { return t.op }, nil))
	m["service.unattributed_ms"] = median(unattributed)
	m["service.layer_sum_ok"] = layerSumOK(median(unattributed), op)

	var waste, queries, depth, parN float64
	var calls, dijkstras, hits, misses float64
	for _, t := range trs {
		if t.parallel {
			waste += float64(t.stats.SpecWaste)
			queries += float64(t.stats.SpecQueries)
			depth += float64(t.stats.PipelineDepth)
			parN++
		}
		calls += float64(t.stats.OracleCalls)
		dijkstras += float64(t.stats.Dijkstras)
		hits += float64(t.stats.WitnessHits)
		misses += float64(t.stats.WitnessMisses)
	}
	n := float64(len(trs))
	m["core.spec_waste_frac"] = ratio(waste, queries)
	m["core.pipeline_depth"] = ratio(depth, parN)
	m["fault.oracle_calls_per_op"] = ratio(calls, n)
	m["fault.witness_hit_rate"] = ratio(hits, hits+misses)
	m["sssp.dijkstras_per_op"] = ratio(dijkstras, n)

	var snap service.MetricsSnapshot
	if err := b.api.getJSON("/metrics", &snap); err == nil {
		m["fault.query_p50_us"] = snap.Latency.OracleQuery.P50MS * 1000
		m["store.put_ms"] = snap.Latency.StorePut.P50MS
		m["store.get_ms"] = snap.Latency.StoreGet.P50MS
		m["store.hit_frac"] = ratio(float64(snap.StoreHits), float64(snap.JobsSubmitted))
		m["service.mem_hit_frac"] = ratio(float64(snap.CacheHits), float64(snap.JobsSubmitted))
		m["store.write_errors"] = float64(snap.StoreWriteErrors)
	}
	return m
}

// layerSumOK is 1 when the unattributed time is within layerSumTolerance
// of the op time.
func layerSumOK(unattributed, op float64) float64 {
	if op > 0 && unattributed <= layerSumTolerance*op && unattributed >= -layerSumTolerance*op {
		return 1
	}
	return 0
}

func (b *coldBench) details() map[string]any {
	samples := 0
	for _, cl := range b.cl {
		samples += len(cl.samples)
	}
	return map[string]any{
		"n": b.cfg.size.coldN, "m": b.cfg.size.coldM, "faults": 2, "stretch": stretch,
		"workers": coldWorkers, "greedy_checked_samples": samples,
	}
}
