package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/physio"
)

// TestMain lets the test binary serve as the server child the runs spawn.
func TestMain(m *testing.M) {
	childMain()
	os.Exit(m.Run())
}

func smokeOptions(t *testing.T) options {
	if runtime.NumCPU() < 2 {
		t.Skip("the benchmark needs two CPUs")
	}
	return options{seed: 1, seconds: 4, conns: 2, procs: 2, sessions: 16, lifeS: 4, workdir: t.TempDir()}
}

// benchmarkJSON is the contract file at the root of the repository.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c benchmarkJSON
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	c := readBenchmarkJSON(t)
	check := func(kind string, got []metricDef, want []contractMetric) {
		if len(got) != len(want) {
			t.Errorf("%s: icgbench reports %d metrics, BENCHMARK.json lists %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: icgbench %s [%s], BENCHMARK.json %s [%s]", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, c.EndToEnd)
	check("per_layer", perLayer, c.PerLayer)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, icgbench has %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %s (%q), icgbench %s (%q)", i, c.Workloads[i].Name, c.Workloads[i].Why, w.name, w.why)
		}
	}
}

// TestSmoke runs every workload small, untraced and traced, with
// verification on, and checks that each run passes and prints exactly
// the contract's metric names, each with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns server children and streams for seconds")
	}
	c := readBenchmarkJSON(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := smokeOptions(t)
			o.traced = traced
			want := c.EndToEnd
			if traced {
				want = c.PerLayer
			}
			res := runWorkload(w, o)
			var out bytes.Buffer
			res.print(&out)
			if res.failed != 0 || res.ops == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed:\n%s", w.name, traced, res.failed, res.ops, out.String())
				continue
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last struct {
				Correct bool `json:"correct"`
				Metrics map[string]struct {
					Unit string `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || !last.Correct {
				t.Errorf("%s traced=%v: bad result line %q: %v", w.name, traced, lines[len(lines)-1], err)
			}
			listed := map[string]bool{}
			for _, m := range want {
				listed[m.Name] = true
				// A tail percentile short of samples at this size is
				// printed as unsupported, still by name and unit.
				if !containsUnit(out.String(), m.Name, m.Unit) {
					t.Errorf("%s traced=%v: %s [%s] not printed", w.name, traced, m.Name, m.Unit)
				}
				if got, ok := last.Metrics[m.Name]; ok && got.Unit != m.Unit {
					t.Errorf("%s traced=%v: %s unit %q, want %q", w.name, traced, m.Name, got.Unit, m.Unit)
				}
			}
			for name := range last.Metrics {
				if !listed[name] {
					t.Errorf("%s traced=%v: %s is not in BENCHMARK.json", w.name, traced, name)
				}
			}
		}
	}
}

// containsUnit reports whether a line reports name with unit, as
// "name value unit" or "name unsupported unit".
func containsUnit(out, name, unit string) bool {
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) >= 3 && f[0] == name && f[2] == unit {
			return true
		}
	}
	return false
}

// TestCorruptedReferenceFails pins that verification has teeth: one
// wrong reference hash fails the run and gives a non-zero exit.
func TestCorruptedReferenceFails(t *testing.T) {
	o := smokeOptions(t)
	o.sessions, o.seconds, o.corruptRef = 4, 2, true
	w, _ := workloadByName("fleet_realtime")
	res := runWorkload(w, o)
	if res.failed == 0 || res.exitCode() == 0 {
		t.Fatalf("corrupted reference: %d failed, exit %d; want a failure", res.failed, res.exitCode())
	}
	var out bytes.Buffer
	res.print(&out)
	if !strings.Contains(out.String(), `"correct":false`) {
		t.Fatalf("result line does not say correct=false:\n%s", out.String())
	}
}

// TestQuantileRule pins the tail rule: a percentile is reported only
// with at least ten samples beyond it.
func TestQuantileRule(t *testing.T) {
	ramp := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	cases := []struct {
		n  int
		q  float64
		ok bool
	}{
		{9999, 0.999, false},
		{10000, 0.999, true},
		{999, 0.99, false},
		{1000, 0.99, true},
		{1, 0.5, true},
	}
	for _, c := range cases {
		v, ok := quantile(ramp(c.n), c.q)
		if ok != c.ok {
			t.Errorf("n=%d q=%v: supported=%v, want %v", c.n, c.q, ok, c.ok)
		}
		if beyond := c.n - int(v); c.q > 0.5 && c.ok && beyond < minBeyond {
			t.Errorf("n=%d q=%v: %d samples beyond %v", c.n, c.q, beyond, v)
		}
	}
	if v, _ := quantile(ramp(10000), 0.999); v != 9990 {
		t.Errorf("p99.9 of 1..10000 = %v, want 9990", v)
	}
}

// TestAttribution checks the triggering-chunk attribution against its
// definition: the events emitted by chunks 0..k are exactly those
// attributed to a chunk at most k.
func TestAttribution(t *testing.T) {
	dev, err := core.NewDevice(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sub, _ := physio.SubjectByID(2)
	acq, err := dev.Acquire(&sub, 30)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := workloadByName("durable_churn") // health floor armed: beat and health events
	p := &plan{w: w, dev: dev, scfg: w.sessionConfig(2)}
	s := &sessPlan{id: 7, rec: &recording{acq.ECG, acq.Z}, off: 123, n: 20 * 250}
	trig := newStreamerReplay(p).attribute(s, s.n, true, nil)
	if len(trig) == 0 {
		t.Fatal("no events attributed")
	}
	flushed := 0
	for j := range trig {
		if trig[j] < 0 {
			flushed++
		} else if flushed > 0 || j > 0 && trig[j] < trig[j-1] {
			t.Fatalf("attribution out of order at event %d: %v", j, trig)
		}
	}
	chunks := s.chunks(w.chunk)
	for _, k := range []int{0, chunks / 3, chunks / 2, chunks - 1} {
		st := dev.NewStreamer(p.scfg.Stream)
		st.SetHealthFloor(p.scfg.Health.EvictBelowRate)
		got := 0
		st.Emit(event.Func(func(e event.Event) {
			if !lifecycle(e.Kind) {
				got++
			}
		}), s.id)
		for c := 0; c <= k; c++ {
			st.Push(s.chunkAt(c, w.chunk))
		}
		want := 0
		for _, tk := range trig {
			if tk >= 0 && int(tk) <= k {
				want++
			}
		}
		if got != want {
			t.Errorf("after chunk %d: %d events emitted, %d attributed to chunks 0..%d", k, got, want, k)
		}
	}
}

// TestEvictionProbe checks that a dead-contact session is evicted inside
// its planned input and that the probe reports where.
func TestEvictionProbe(t *testing.T) {
	w, _ := workloadByName("durable_churn")
	dev, err := core.NewDevice(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := &plan{w: w, dev: dev, scfg: w.sessionConfig(2)}
	ecg, z := physio.DeadContact(3, 30*250)
	s := &sessPlan{id: 1, rec: &recording{ecg, z}, n: 30 * 250, dead: true}
	probe := newEvictionProbe(p)
	defer probe.close()
	n, evicts, err := probe.evictionPoint(s)
	if err != nil {
		t.Fatal(err)
	}
	if !evicts || n <= 0 || n >= s.n {
		t.Fatalf("dead contact: evicted=%v at sample %d of %d", evicts, n, s.n)
	}
}

// TestConfigGuard checks that every workload passes the guard with one
// connection and one thread per CPU, as main runs it, and that each limit
// refuses a run past it.
func TestConfigGuard(t *testing.T) {
	for _, nproc := range []int{1, 2} {
		o := options{seconds: 1, conns: nproc, procs: nproc}
		for _, w := range workloads {
			if err := o.check(w, nproc); err != nil {
				t.Errorf("%s at nproc %d refused: %v", w.name, nproc, err)
			}
		}
	}
	w, _ := workloadByName("fleet_saturate")
	cases := []struct {
		name  string
		o     options
		w     workload
		nproc int
		want  string
	}{
		{"more connections than nproc", options{seconds: 1, conns: 4, procs: 2}, w, 2, "connections"},
		{"GOMAXPROCS above nproc", options{seconds: 1, conns: 2, procs: 8}, w, 2, "GOMAXPROCS"},
		{"streams per connection", options{seconds: 1, conns: 2, procs: 2, sessions: 10000}, w, 2, "streams per connection"},
	}
	for _, c := range cases {
		err := c.o.check(c.o.apply(c.w), c.nproc)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error about %q", c.name, err, c.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1, 4, 2}, 1.25, 4.75},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
}

func TestGCTraceLine(t *testing.T) {
	line := "gc 12 @3.456s 2%: 0.021+1.2+0.003 ms clock, 0.043+0.5/1.1/0.2+0.006 ms cpu, 4->5->2 MB, 5 MB goal, 0 MB stacks, 0 MB globals, 2 P"
	cpu, ok := gcCPUms(line)
	if !ok || math.Abs(cpu-(0.043+0.5+1.1+0.006)) > 1e-9 {
		t.Fatalf("gcCPUms = %v, %v", cpu, ok)
	}
}

func TestCompareVerdict(t *testing.T) {
	lower := contractMetric{Name: "m", Better: "lower", Bound: 0.05}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v + d
		}
		return out
	}
	cases := []struct {
		next []float64
		want string
	}{
		{shift(-10), "gain"},
		{shift(10), "regressed"},
		{shift(0.5), "same"},
	}
	for _, c := range cases {
		if got := verdict(lower, base, c.next); !strings.HasPrefix(got, c.want) {
			t.Errorf("verdict = %q, want %s", got, c.want)
		}
	}
	noisy := []float64{50, 150, 80, 120, 60, 140, 90, 110, 70, 130}
	if got := verdict(lower, noisy, noisy); !strings.HasPrefix(got, "unresolved") {
		t.Errorf("noisy base: verdict = %q, want unresolved", got)
	}
	unbounded := contractMetric{Name: "m", Better: "lower"}
	if got := verdict(unbounded, base, shift(-10)); !strings.HasPrefix(got, "gain") {
		t.Errorf("no bound, better: verdict = %q, want gain", got)
	}
	if got := verdict(unbounded, base, shift(10)); !strings.HasPrefix(got, "no gain") {
		t.Errorf("no bound, worse: verdict = %q, want no gain", got)
	}
}

// TestRecordParsesPrintedRun checks that -record keeps both the result
// line's metrics and the bound-free ones printed before it.
func TestRecordParsesPrintedRun(t *testing.T) {
	res := newResult("fleet_realtime", 1)
	res.ops = 7
	res.set("setup_s", 0.5)
	res.set("heap_kb_per_session", 193.0625)
	res.set("rss_kb_per_session", 165.25)
	res.set("server_cpu_us_per_pair", 0.85)
	var out bytes.Buffer
	res.print(&out)
	run, err := parseResult(out.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"setup_s": 0.5, "heap_kb_per_session": 193.0625, "rss_kb_per_session": 165.25, "server_cpu_us_per_pair": 0.85}
	if run.Ops != 7 || len(run.Metrics) != len(want) {
		t.Fatalf("parsed %d ops, metrics %v; want 7 ops, %v", run.Ops, run.Metrics, want)
	}
	for k, v := range want {
		if run.Metrics[k] != v {
			t.Errorf("%s = %v, want %v", k, run.Metrics[k], v)
		}
	}
}
