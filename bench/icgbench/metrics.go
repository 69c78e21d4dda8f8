package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strings"
)

// metricDef names one reported metric and its unit. The two lists below
// are the benchmark's contract: BENCHMARK.json lists the same names with
// the same units (pinned by TestMetricsMatchBenchmarkJSON).
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the gateway sees that hold a
// regression bound on every workload, printed by every untraced run;
// bench/README.md gives the spreads that set the bounds.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_kb_per_session", "KB"},
}

// perLayer are the traced run's metrics: calls into each layer's public
// functions, timed from the benchmark's own code. The throughput, server
// CPU, VmRSS and latency metrics lead the list: they are end-to-end
// quantities every run measures, but their run-to-run spread is wider
// than a third of a 10% bound (on a shared two-CPU machine), so they are
// reported without one.
var perLayer = []metricDef{
	{"throughput_pairs_per_s", "pairs/s"},
	{"server_cpu_us_per_pair", "us"},
	{"rss_kb_per_session", "KB"},
	{"event_latency_p50_ms", "ms"},
	{"event_latency_p99_ms", "ms"},
	{"event_latency_p999_ms", "ms"},
	{"close_latency_p99_ms", "ms"},
	{"radio.scan_ns_per_frame", "ns"},
	{"radio.frames_per_kpair", "frames/kpair"},
	{"gateway.encode_ns_per_pair", "ns"},
	{"gateway.write_wait_us_per_chunk", "us"},
	{"gateway.push_us_p50", "us"},
	{"gateway.push_us_p99", "us"},
	{"gateway.open_ms_p50", "ms"},
	{"gateway.open_ms_p99", "ms"},
	{"gateway.close_ms_p50", "ms"},
	{"gateway.wire_bytes_per_pair", "B/pair"},
	{"gateway.egress_bytes_per_event", "B/event"},
	{"gateway.events_dropped", "count"},
	{"gateway.protocol_errs", "count"},
	{"session.push_owned_us_p50", "us"},
	{"session.push_owned_us_p99", "us"},
	{"session.emit_delay_us_p50", "us"},
	{"session.emit_delay_us_p99", "us"},
	{"session.subscribe_us_p50", "us"},
	{"session.close_us_p50", "us"},
	{"session.close_us_p99", "us"},
	{"session.evicted", "count"},
	{"session.shed_pairs_frac", "frac"},
	{"core.push_ns_per_pair", "ns"},
	{"core.beats_per_kpair", "beats/kpair"},
	{"core.push_us_beat_chunk_p50", "us"},
	{"core.push_us_plain_chunk_p50", "us"},
	{"core.flush_us_p50", "us"},
	{"quality.accept_frac", "frac"},
	{"wal.append_us_p50", "us"},
	{"wal.append_us_p99", "us"},
	{"wal.bytes_per_event", "B/event"},
	{"wal.recover_ms", "ms"},
	{"event.encode_ns", "ns"},
	{"event.decode_ns", "ns"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.ctx_switches_per_kpair", "switches/kpair"},
	{"gen.lag_p99_ms", "ms"},
	{"gen.cpu_us_per_pair", "us"},
	{"ledger.closure_gap_frac", "frac"},
	{"ledger.trace_overhead_frac", "frac"},
}

// minBeyond is how many samples must lie beyond a tail percentile for it
// to be reported at all.
const minBeyond = 10

// rank returns the nearest-rank index of quantile q in n sorted samples.
func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

// quantile returns the nearest-rank q-quantile of sorted samples, and
// whether at least minBeyond samples lie beyond it. A median is always
// supported when there are samples; a tail percentile only with enough
// samples past it.
func quantile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	i := rank(n, q)
	if q <= 0.5 {
		return sorted[i], true
	}
	return sorted[i], n-1-i >= minBeyond
}

// reservoir keeps a uniform sample of at most reservoirCap values, so a
// distribution of millions of per-call timings costs bounded memory. The
// replacement stream is seeded, so the same inputs keep the same sample.
type reservoir struct {
	vals []float64
	n    int
	rng  *rand.Rand
	sum  float64
}

const reservoirCap = 1 << 20

func (r *reservoir) add(v float64) {
	r.n++
	r.sum += v
	if len(r.vals) < reservoirCap {
		r.vals = append(r.vals, v)
		return
	}
	if r.rng == nil {
		r.rng = rand.New(rand.NewSource(1))
	}
	if j := r.rng.Intn(r.n); j < reservoirCap {
		r.vals[j] = v
	}
}

func (r *reservoir) merge(o *reservoir) {
	for _, v := range o.vals {
		r.add(v)
	}
	// Keep the exact totals of the merged stream, not of its sample.
	r.sum += o.sum - sum(o.vals)
	r.n += o.n - len(o.vals)
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// q returns quantile q of the sample (see quantile).
func (r *reservoir) q(q float64) (float64, bool) {
	if !sort.Float64sAreSorted(r.vals) {
		sort.Float64s(r.vals)
	}
	return quantile(r.vals, q)
}

func (r *reservoir) mean() float64 {
	if r.n == 0 {
		return 0
	}
	return r.sum / float64(r.n)
}

// value is one reported metric value; ok is false for a tail percentile
// without minBeyond samples past it, which is then not reported.
type value struct {
	v  float64
	ok bool
}

// result is one workload run's outcome.
type result struct {
	workload string
	seed     int64
	traced   bool
	ops      int
	failed   int
	notes    []string          // failure and validity notes, printed before the JSON
	invalid  string            // why a run breaks its workload's latency limit ("" if valid)
	values   map[string]value  // every metric computed, by name
	samples  map[string]int    // sample counts behind percentile metrics
	extra    map[string]string // machine facts and labels for the text report
	ledger   string            // the traced run's closure ledger table
}

func newResult(w string, seed int64) *result {
	return &result{workload: w, seed: seed, values: map[string]value{}, samples: map[string]int{}, extra: map[string]string{}}
}

// set records a metric; a value that is not finite (nothing to divide
// by) is recorded as unsupported.
func (r *result) set(name string, v float64) {
	r.values[name] = value{v: v, ok: !math.IsNaN(v) && !math.IsInf(v, 0)}
}

// setQ records quantile q of a sample under name, with its sample count.
func (r *result) setQ(name string, rs *reservoir, q float64, scale float64) {
	v, ok := rs.q(q)
	r.values[name] = value{v: v * scale, ok: ok}
	r.samples[name] = rs.n
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.notes) < 20 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// failN counts n failed operations under one note.
func (r *result) failN(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.failed += n - 1
	r.fail(format, args...)
}

// defs returns the metric list this run reports.
func (r *result) defs() []metricDef {
	if r.traced {
		return perLayer
	}
	return endToEnd
}

// missing lists the reported metrics the run could not support.
func (r *result) missing() []string {
	var out []string
	for _, d := range r.defs() {
		if v, ok := r.values[d.name]; !ok || !v.ok {
			out = append(out, d.name)
		}
	}
	return out
}

// print writes the human report, then the one-line JSON result last.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s seed %d traced %v\n", r.workload, r.seed, r.traced)
	keys := make([]string, 0, len(r.extra))
	for k := range r.extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-34s %s\n", k, r.extra[k])
	}
	for _, d := range r.defs() {
		v, measured := r.values[d.name]
		if !measured {
			fmt.Fprintf(w, "  %-34s not measured\n", d.name)
			continue
		}
		n := ""
		c, counted := r.samples[d.name]
		if counted {
			n = fmt.Sprintf("  (n=%d)", c)
		}
		switch {
		case !v.ok && counted:
			fmt.Fprintf(w, "  %-34s unsupported %s%s: fewer than %d samples beyond it\n", d.name, d.unit, n, minBeyond)
			continue
		case !v.ok:
			fmt.Fprintf(w, "  %-34s unsupported %s: not finite\n", d.name, d.unit)
			continue
		}
		fmt.Fprintf(w, "  %-34s %.6g %s%s\n", d.name, v.v, d.unit, n)
	}
	if !r.traced {
		// What the untraced run measured beyond its contract metrics;
		// -record reads these lines too.
		for _, d := range perLayer {
			if v, ok := r.values[d.name]; ok && v.ok {
				n := ""
				if c, counted := r.samples[d.name]; counted {
					n = fmt.Sprintf("n=%d; ", c)
				}
				fmt.Fprintf(w, "  %-34s %.6g %s  (%sno bound, reported by -trace 1)\n", d.name, v.v, d.unit, n)
			}
		}
	}
	if r.ledger != "" {
		fmt.Fprint(w, r.ledger)
	}
	fmt.Fprintf(w, "  ops %d ops_failed %d\n", r.ops, r.failed)
	if r.invalid != "" {
		fmt.Fprintf(w, "  INVALID: %s\n", r.invalid)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  FAILED: %s\n", n)
	}
	type jv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jv `json:"metrics"`
	}{Correct: r.failed == 0, Attempted: r.ops, Failed: r.failed, Metrics: map[string]jv{}}
	for _, d := range r.defs() {
		if v := r.values[d.name]; v.ok {
			out.Metrics[d.name] = jv{v.v, d.unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Fprintln(w, string(b))
}

// exitCode is the process status for a run: any failed operation, or a
// reported metric the run could not support, is a non-zero exit.
func (r *result) exitCode() int {
	if r.failed > 0 {
		return 1
	}
	if len(r.missing()) > 0 {
		return 2
	}
	return 0
}

// fmtTable renders rows of cells as aligned columns.
func fmtTable(rows [][]string) string {
	width := map[int]int{}
	for _, row := range rows {
		for i, c := range row {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	for _, row := range rows {
		b.WriteString("  ")
		for i, c := range row {
			fmt.Fprintf(&b, "%-*s  ", width[i], c)
		}
		b.WriteString("\n")
	}
	return b.String()
}
