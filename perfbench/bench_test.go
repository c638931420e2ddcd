package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
	"time"
)

// runTiny runs one workload on tiny inputs and returns its exit code and
// decoded result line.
func runTiny(t *testing.T, workload string, trace, corrupt bool) (int, result, string) {
	t.Helper()
	cfg := &config{
		workload: workload,
		seed:     7,
		window:   time.Second,
		trace:    trace,
		size:     tinySizes,
		ck:       &checker{corrupt: corrupt},
	}
	var stdout, stderr bytes.Buffer
	code := execute(cfg, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last stdout line is not a result: %v\nstdout:\n%s\nstderr:\n%s", workload, err, stdout.String(), stderr.String())
	}
	return code, res, stderr.String()
}

// TestTinyRuns runs every workload untraced and traced: each must pass its
// correctness checks and print exactly its metric set, every metric with
// its unit.
func TestTinyRuns(t *testing.T) {
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			code, res, stderr := runTiny(t, wl.name, trace, false)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: exit %d, correct %v, failed %d of %d\n%s",
					wl.name, trace, code, res.Correct, res.Failed, res.Attempted, stderr)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl.name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", wl.name, trace, d.name, m, d.unit)
				}
			}
		}
	}
}

// TestWrongDigestFails replaces the first expected digest with a wrong one:
// every workload's checks must catch it, count a failure and exit non-zero.
func TestWrongDigestFails(t *testing.T) {
	for _, wl := range workloads {
		code, res, _ := runTiny(t, wl.name, false, true)
		if code == 0 || res.Correct || res.Failed == 0 {
			t.Errorf("%s: wrong expected digest gave exit %d, correct %v, failed %d", wl.name, code, res.Correct, res.Failed)
		}
	}
}

// flakyBench is a stand-in workload whose every other op fails at once.
type flakyBench struct{ n [clients]int }

func (f *flakyBench) op(c int, traced bool) (time.Duration, error) {
	f.n[c]++
	if f.n[c]%2 == 0 {
		return 0, errors.New("rejected")
	}
	time.Sleep(2 * time.Millisecond)
	return 2 * time.Millisecond, nil
}
func (f *flakyBench) verify()                    {}
func (f *flakyBench) layers() map[string]float64 { return zeroLayers() }
func (f *flakyBench) details() map[string]any    { return nil }
func (f *flakyBench) close()                     {}

// TestFailedOpsAreNotThroughput: ops that fail fast must count neither as
// throughput nor as CPU-cheap ops, and any failed op makes the run
// incorrect and exit non-zero.
func TestFailedOpsAreNotThroughput(t *testing.T) {
	p := runPhase(&flakyBench{}, 300*time.Millisecond, false)
	ok := 0
	for _, sl := range p.bySlice {
		ok += sl.ok
	}
	if p.failed == 0 || ok != p.attempted-p.failed || ok != len(p.lat) {
		t.Errorf("attempted %d, failed %d, ok in slices %d, latencies %d", p.attempted, p.failed, ok, len(p.lat))
	}

	workloads = append(workloads, workload{"flaky", func(*config, string) (bench, error) { return &flakyBench{}, nil }})
	t.Cleanup(func() { workloads = workloads[:len(workloads)-1] })
	cfg := &config{workload: "flaky", seed: 1, window: 300 * time.Millisecond, size: tinySizes, ck: &checker{}}
	var stdout, stderr bytes.Buffer
	code := execute(cfg, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last stdout line is not a result: %v\n%s", err, stdout.String())
	}
	if code == 0 || res.Correct || res.Failed == 0 || res.Metrics["ok_frac"].Value >= 1 {
		t.Errorf("failing ops gave exit %d, correct %v, failed %d, ok_frac %v", code, res.Correct, res.Failed, res.Metrics["ok_frac"].Value)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric table in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i := range spec.Workloads {
		if i < len(workloads) && spec.Workloads[i].Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, spec.Workloads[i].Name, workloads[i].name)
		}
	}
	same := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, g, d)
			}
			if kind == "end_to_end" && (g.Bound == nil || *g.Bound <= 0 || *g.Bound > 0.25) {
				t.Errorf("%s: bound must be in (0, 0.25]", g.Name)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
