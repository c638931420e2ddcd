package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ftspanner/ftspanner/internal/cluster"
	"github.com/ftspanner/ftspanner/internal/gen"
	"github.com/ftspanner/ftspanner/internal/graph"
	"github.com/ftspanner/ftspanner/internal/service"
)

const fleetSize = 3

// jobs-repeat: the clients resubmit large, already-built inline graphs to
// a three-replica fleet (answered from the memory LRU or the durable
// store), then GET /spanner through the same entry replica. No builds.
type repeatBench struct {
	cfg  *config
	reps [fleetSize]*replica // indexed by ring position
	ring *cluster.Ring
	hc   *http.Client
	// set is the working set, perOwner graphs per ring owner, so every
	// replica's store/LRU mix is the same whatever ports the ring hashed.
	set  [fleetSize][]repeatGraph
	base fleetCounters // counters at the end of set-up
	cl   [clients]repeatClient
}

type replica struct {
	ts   *httptest.Server
	addr string
	node atomic.Pointer[cluster.Node]
	svc  *service.Server
	api  api
}

type repeatGraph struct {
	text string
	body []byte
	want string // spannerDigest of the reply recorded at set-up
}

type repeatClient struct {
	next   int
	traces []repeatTrace
}

type repeatTrace struct {
	op, submit, fetch          float64 // ms, client-timed
	local                      bool    // entry replica == ring owner
	sampled                    bool
	decode, digest, specDigest float64 // ms, timed from outside on sampled ops
}

// fleetCounters sums the replicas' service and cluster counters.
type fleetCounters struct {
	submitted, cacheHits, storeHits, writeErrors int64
	retries, peerErrors                          int64
}

func newRepeat(cfg *config, dir string) (bench, error) {
	b := &repeatBench{cfg: cfg, hc: newHTTPClient()}
	ok := false
	defer func() {
		if !ok {
			b.close()
		}
	}()
	// Listeners first: the ring is a function of every replica's address.
	var reps [fleetSize]*replica
	var peers []string
	for i := range reps {
		rep := &replica{}
		rep.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if n := rep.node.Load(); n != nil {
				n.ServeHTTP(w, r)
				return
			}
			http.Error(w, "replica starting", http.StatusServiceUnavailable)
		}))
		u, err := url.Parse(rep.ts.URL)
		if err != nil {
			return nil, err
		}
		rep.addr = u.Host
		rep.api = api{base: rep.ts.URL, hc: b.hc}
		reps[i] = rep
		peers = append(peers, rep.addr)
	}
	b.ring = cluster.NewRing(peers, 0)
	for _, rep := range reps {
		b.reps[b.ring.Index(rep.addr)] = rep
	}
	for i, rep := range b.reps {
		svc, err := service.New(service.Config{
			Workers:      1,
			StoreDir:     filepath.Join(dir, fmt.Sprintf("replica%d", i)),
			CacheEntries: cfg.size.cacheEntries,
			JobRetention: jobRetention,
		})
		if err != nil {
			return nil, err
		}
		rep.svc = svc
		node, err := cluster.New(cluster.Config{Self: rep.addr, Peers: peers, Local: svc})
		if err != nil {
			return nil, err
		}
		rep.node.Store(node)
	}
	if err := b.buildWorkingSet(); err != nil {
		return nil, err
	}
	b.base = b.counters()
	ok = true
	return b, nil
}

// buildWorkingSet draws seeded graphs until every ring owner has perOwner
// of them, then builds each once through its owner and records the reply
// digest every later op must match.
func (b *repeatBench) buildWorkingSet() error {
	sz := b.cfg.size
	for k := 0; ; k++ {
		if k > 100*sz.perOwner {
			return fmt.Errorf("working set: %d graphs drawn without filling every owner", k)
		}
		full := true
		for _, s := range b.set {
			full = full && len(s) == sz.perOwner
		}
		if full {
			break
		}
		rng := subRand(b.cfg.seed, streamRepeatSet, k)
		g, err := gen.ConnectedGNM(sz.repeatN, sz.repeatM, rng)
		if err != nil {
			return err
		}
		if g, err = gen.RandomizeWeights(g, 1, 100, rng); err != nil {
			return err
		}
		owner := b.ring.Owner(g.Digest())
		if len(b.set[owner]) == sz.perOwner {
			continue
		}
		var sb strings.Builder
		if err := g.Encode(&sb); err != nil {
			return err
		}
		body, err := json.Marshal(service.JobSpec{Graph: sb.String(), Stretch: stretch, Faults: 1})
		if err != nil {
			return err
		}
		b.set[owner] = append(b.set[owner], repeatGraph{text: sb.String(), body: body})
	}
	// One builder per owner: each replica has one worker, so the owners
	// build in parallel and each owner's graphs in sequence.
	var wg sync.WaitGroup
	errs := make([]error, fleetSize)
	for o := range b.set {
		wg.Add(1)
		go func(o int) {
			defer wg.Done()
			for j := range b.set[o] {
				g := &b.set[o][j]
				sub, err := b.reps[o].api.submitAndWait(g.body)
				if err != nil {
					errs[o] = err
					return
				}
				var sp spannerReply
				if err := b.reps[o].api.getJSON("/v1/jobs/"+sub.ID+"/spanner", &sp); err != nil {
					errs[o] = err
					return
				}
				g.want = spannerDigest(sp)
			}
		}(o)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (b *repeatBench) close() {
	for _, rep := range b.reps {
		if rep == nil {
			continue
		}
		if n := rep.node.Load(); n != nil {
			n.Close()
		}
		rep.ts.Close()
		if rep.svc != nil {
			rep.svc.Close()
		}
	}
	b.hc.CloseIdleConnections()
}

func (b *repeatBench) op(c int, traced bool) (time.Duration, error) {
	cl := &b.cl[c]
	i := cl.next
	cl.next++
	// The schedule picks an owner, a graph of its working set, and the
	// entry replica relative to the owner: 1/3 local, 2/3 routed.
	rng := subRand(b.cfg.seed, streamRepeatOps, c, i)
	owner := rng.Intn(fleetSize)
	g := &b.set[owner][rng.Intn(len(b.set[owner]))]
	hop := rng.Intn(fleetSize)
	entry := b.reps[(owner+hop)%fleetSize]

	t0 := time.Now()
	sub, err := entry.api.submitAndWait(g.body)
	if err != nil {
		return 0, err
	}
	t1 := time.Now()
	data, err := entry.api.call(http.MethodGet, "/v1/jobs/"+sub.ID+"/spanner", nil)
	if err != nil {
		return 0, err
	}
	t2 := time.Now()

	var sp spannerReply
	if err := json.Unmarshal(data, &sp); err != nil {
		return 0, fmt.Errorf("spanner reply: %w", err)
	}
	if err := b.cfg.ck.inOp("jobs-repeat reply", spannerDigest(sp), g.want); err != nil {
		return 0, err
	}
	if traced {
		tr := repeatTrace{op: ms(t2.Sub(t0)), submit: ms(t1.Sub(t0)), fetch: ms(t2.Sub(t1)), local: hop == 0}
		// The graph and routing layers' share, timed from outside on one
		// op in four: decode and digest as the owner does them, and the
		// router's SpecDigest of the same body.
		if i%4 == 0 {
			start := time.Now()
			dg, err := graph.Decode(strings.NewReader(g.text))
			if err != nil {
				return 0, err
			}
			tr.decode = ms(time.Since(start))
			start = time.Now()
			_ = dg.Digest()
			tr.digest = ms(time.Since(start))
			start = time.Now()
			if _, err := service.SpecDigest(g.body); err != nil {
				return 0, err
			}
			tr.specDigest = ms(time.Since(start))
			tr.sampled = true
		}
		cl.traces = append(cl.traces, tr)
	}
	return t2.Sub(t0), nil
}

// verify has nothing left to check: every reply was compared with its
// set-up digest inside the op.
func (b *repeatBench) verify() {}

// counters reads every replica's /metrics (service and cluster blocks).
func (b *repeatBench) counters() fleetCounters {
	var fc fleetCounters
	for _, rep := range b.reps {
		var snap struct {
			service.MetricsSnapshot
			cluster.ClusterMetrics
		}
		if err := rep.api.getJSON("/metrics", &snap); err != nil {
			continue
		}
		fc.submitted += snap.JobsSubmitted
		fc.cacheHits += snap.CacheHits
		fc.storeHits += snap.StoreHits
		fc.writeErrors += snap.StoreWriteErrors
		fc.retries += snap.RetriesTotal
		fc.peerErrors += snap.PeerErrorsTotal
	}
	return fc
}

func (b *repeatBench) layers() map[string]float64 {
	m := zeroLayers()
	var trs []repeatTrace
	for _, cl := range b.cl {
		trs = append(trs, cl.traces...)
	}
	col := func(f func(repeatTrace) float64, keep func(repeatTrace) bool) []float64 { return column(trs, f, keep) }
	sampled := func(t repeatTrace) bool { return t.sampled }
	op := func(t repeatTrace) float64 { return t.op }
	m["graph.decode_ms"] = median(col(func(t repeatTrace) float64 { return t.decode }, sampled))
	m["graph.digest_ms"] = median(col(func(t repeatTrace) float64 { return t.digest }, sampled))
	m["cluster.spec_digest_ms"] = median(col(func(t repeatTrace) float64 { return t.specDigest }, sampled))
	m["cluster.local_ms"] = median(col(op, func(t repeatTrace) bool { return t.local }))
	m["cluster.routed_ms"] = median(col(op, func(t repeatTrace) bool { return !t.local }))
	m["service.submit_ms"] = median(col(func(t repeatTrace) float64 { return t.submit }, nil))
	m["service.fetch_ms"] = median(col(func(t repeatTrace) float64 { return t.fetch }, nil))
	// What the graph work (router SpecDigest, owner decode and digest) and
	// the fetch leave of the op: the hop, the cache/store read, replies.
	m["service.unattributed_ms"] = median(col(func(t repeatTrace) float64 {
		return t.op - (t.specDigest + t.decode + t.digest + t.fetch)
	}, sampled))

	// Counters over every op since set-up (warm-up, untraced and traced).
	fc := b.counters()
	var ops float64
	for _, cl := range b.cl {
		ops += float64(cl.next)
	}
	submitted := float64(fc.submitted - b.base.submitted)
	m["cluster.retries_per_op"] = ratio(float64(fc.retries-b.base.retries), ops)
	m["cluster.peer_errors_per_op"] = ratio(float64(fc.peerErrors-b.base.peerErrors), ops)
	m["service.mem_hit_frac"] = ratio(float64(fc.cacheHits-b.base.cacheHits), submitted)
	m["store.hit_frac"] = ratio(float64(fc.storeHits-b.base.storeHits), submitted)
	m["store.write_errors"] = float64(fc.writeErrors)

	// The replicas' store read latency, weighted by their read counts.
	var sum, n float64
	for _, rep := range b.reps {
		var snap service.MetricsSnapshot
		if err := rep.api.getJSON("/metrics", &snap); err == nil {
			get := snap.Latency.StoreGet
			sum += get.P50MS * float64(get.Count)
			n += float64(get.Count)
		}
	}
	m["store.get_ms"] = ratio(sum, n)
	return m
}

func (b *repeatBench) details() map[string]any {
	var local, routed int
	for _, cl := range b.cl {
		for _, t := range cl.traces {
			if t.local {
				local++
			} else {
				routed++
			}
		}
	}
	bodyBytes := 0
	for _, s := range b.set {
		for _, g := range s {
			bodyBytes += len(g.body)
		}
	}
	return map[string]any{
		"n": b.cfg.size.repeatN, "m": b.cfg.size.repeatM, "faults": 1, "stretch": stretch,
		"replicas": fleetSize, "per_owner": b.cfg.size.perOwner, "cache_entries": b.cfg.size.cacheEntries,
		"mean_body_bytes":  bodyBytes / (fleetSize * b.cfg.size.perOwner),
		"traced_local_ops": local, "traced_routed_ops": routed,
	}
}
