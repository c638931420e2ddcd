package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// slices splits a phase into equal time slices; throughput and tail
// latency are reported as medians over slices, so a stall shorter than a
// slice does not move them.
const slices = 5

// phase is one closed-loop measurement window.
type phase struct {
	lat       []float64 // ms, successful ops only
	attempted int
	failed    int
	elapsed   time.Duration
	alloc     uint64        // TotalAlloc growth over the window, bytes
	cpu       time.Duration // process CPU time over the window
	steal     float64       // share of the machine's CPU time stolen by its host over the window
	errs      []string
	// bySlice holds, per time slice, the successful ops started in it and
	// their latencies; sliceLen is one slice's length.
	bySlice  [slices]sliceStats
	sliceLen time.Duration
}

type sliceStats struct {
	ok  int
	lat []float64
}

// sliceOpsPerSec is the median over slices of each slice's throughput of
// successful ops.
func (p *phase) sliceOpsPerSec() float64 {
	var xs []float64
	for _, sl := range p.bySlice {
		xs = append(xs, float64(sl.ok)/p.sliceLen.Seconds())
	}
	return median(xs)
}

// cpuPerOp is the process CPU time (clients and servers together) per
// successful op, in ms.
func (p *phase) cpuPerOp() float64 {
	return ms(p.cpu) / float64(len(p.lat))
}

// slicePercentile is the median over slices of each slice's q-percentile.
func (p *phase) slicePercentile(q float64) float64 {
	var xs []float64
	for _, sl := range p.bySlice {
		if len(sl.lat) > 0 {
			xs = append(xs, percentile(sl.lat, q))
		}
	}
	return median(xs)
}

// merge adds q's ops and time to p, slice by slice.
func (p *phase) merge(q *phase) {
	if t := (p.elapsed + q.elapsed).Seconds(); t > 0 {
		p.steal = (p.steal*p.elapsed.Seconds() + q.steal*q.elapsed.Seconds()) / t
	}
	p.lat = append(p.lat, q.lat...)
	p.attempted += q.attempted
	p.failed += q.failed
	p.elapsed += q.elapsed
	p.alloc += q.alloc
	p.cpu += q.cpu
	p.errs = append(p.errs, q.errs...)
	p.sliceLen += q.sliceLen
	for i := range q.bySlice {
		p.bySlice[i].ok += q.bySlice[i].ok
		p.bySlice[i].lat = append(p.bySlice[i].lat, q.bySlice[i].lat...)
	}
}

// runPhase runs `clients` closed-loop clients against b until window has
// passed; each client starts its next op only after the previous returns.
// Failed ops are counted and never retried; only successful ops count
// toward throughput and latency.
func runPhase(b bench, window time.Duration, traced bool) *phase {
	per := make([]phase, clients)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stealBefore, totalBefore := machineSteal()
	cpuBefore := cpuTime()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := &per[c]
			for {
				began := time.Since(start)
				if began >= window {
					return
				}
				sl := &p.bySlice[min(slices-1, int(slices*began/window))]
				d, err := b.op(c, traced)
				p.attempted++
				if err != nil {
					p.failed++
					if len(p.errs) < 3 {
						p.errs = append(p.errs, err.Error())
					}
					continue
				}
				sl.ok++
				p.lat = append(p.lat, ms(d))
				sl.lat = append(sl.lat, ms(d))
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	cpuAfter := cpuTime()
	runtime.ReadMemStats(&after)
	stealAfter, totalAfter := machineSteal()
	out := &phase{}
	for i := range per {
		out.merge(&per[i])
	}
	out.elapsed, out.sliceLen = elapsed, window/slices
	out.alloc = after.TotalAlloc - before.TotalAlloc
	out.cpu = cpuAfter - cpuBefore
	out.steal = ratio(float64(stealAfter-stealBefore), float64(totalAfter-totalBefore))
	return out
}

// cpuTime is the CPU time (user plus system) this process has used so
// far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// machineSteal reads the machine-wide steal and total CPU ticks from
// /proc/stat (zeros where it is not available).
func machineSteal() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		// user nice system idle iowait irq softirq steal [guest guest_nice]:
		// guest time is already counted in user and nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// Input stream tags: each workload draws from its own seeded streams.
const (
	streamCold = iota + 1
	streamRepeatSet
	streamRepeatOps
	streamSessGraph
	streamSessOps
	streamColdFirst
)

// subRand is the deterministic random source of one input stream element:
// the same seed and tags always give the same sequence.
func subRand(seed int64, tags ...int) *rand.Rand {
	h := splitmix(uint64(seed))
	for _, t := range tags {
		h = splitmix(h ^ uint64(t))
	}
	return rand.New(rand.NewSource(int64(h)))
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ---- HTTP -----------------------------------------------------------------

// api is a client of one ftserve (or fleet node) base URL.
type api struct {
	base string
	hc   *http.Client
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 16, DisableCompression: true},
	}
}

type httpError struct {
	method, path string
	status       int
	body         string
}

func (e *httpError) Error() string {
	return fmt.Sprintf("%s %s: HTTP %d: %s", e.method, e.path, e.status, strings.TrimSpace(e.body))
}

// call sends one request and returns the whole response body; any 4xx or
// 5xx status is an error.
func (a api) call(method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, a.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := a.hc.Do(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	if resp.StatusCode >= 400 {
		return nil, &httpError{method, path, resp.StatusCode, string(data)}
	}
	return data, nil
}

// getJSON GETs path and decodes the JSON reply into v.
func (a api) getJSON(path string, v any) error {
	data, err := a.call(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// followEvents reads a job's NDJSON event stream until the job reaches a
// terminal state and returns that state.
func (a api) followEvents(id string) (string, error) {
	path := "/v1/jobs/" + id + "/events"
	resp, err := a.hc.Get(a.base + path)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		data, _ := io.ReadAll(resp.Body)
		return "", &httpError{http.MethodGet, path, resp.StatusCode, string(data)}
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var ev struct {
			State string `json:"state"`
		}
		if err := dec.Decode(&ev); err != nil {
			return "", fmt.Errorf("job %s events: %w", id, err)
		}
		switch ev.State {
		case "done", "failed", "cancelled", "deadline_exceeded":
			// Drain to EOF so the connection is reused.
			_, _ = io.Copy(io.Discard, resp.Body)
			return ev.State, nil
		}
	}
}

// submitReply is the POST /v1/jobs answer.
type submitReply struct {
	ID    string `json:"id"`
	State string `json:"state"`
}

// spannerReply is the GET /v1/jobs/{id}/spanner answer.
type spannerReply struct {
	Spanner string `json:"spanner"`
	Kept    []int  `json:"kept"`
}

// submitAndWait posts a job spec and follows it to a terminal state.
func (a api) submitAndWait(body []byte) (submitReply, error) {
	var sub submitReply
	data, err := a.call(http.MethodPost, "/v1/jobs", body)
	if err != nil {
		return sub, err
	}
	if err := json.Unmarshal(data, &sub); err != nil {
		return sub, fmt.Errorf("submit reply: %w", err)
	}
	if sub.State != "done" {
		if sub.State, err = a.followEvents(sub.ID); err != nil {
			return sub, err
		}
	}
	if sub.State != "done" {
		return sub, fmt.Errorf("job %s ended %s", sub.ID, sub.State)
	}
	return sub, nil
}

// ---- fingerprint ----------------------------------------------------------

func fingerprint(cfg *config) map[string]any {
	return map[string]any{
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		// run.sh sets both: the checkout's commit, when it is a git
		// repository, and the hash of every Go source, go.mod and the
		// toolchain version it built from.
		"commit":        envOr("PERFBENCH_COMMIT", "unknown"),
		"source_sha256": envOr("PERFBENCH_SOURCE", "unknown"),
		"seed":          cfg.seed,
		"workload":      cfg.workload,
		"trace":         cfg.trace,
		"window_s":      cfg.window.Seconds(),
		"clients":       clients,
	}
}

func envOr(key, fallback string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return fallback
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// spannerDigest is the digest of a job's spanner reply: the spanner text
// and the kept input-edge IDs.
func spannerDigest(r spannerReply) string {
	h := sha256.New()
	h.Write([]byte(r.Spanner))
	fmt.Fprint(h, r.Kept)
	return hex.EncodeToString(h.Sum(nil))
}
