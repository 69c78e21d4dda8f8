// Command icgbench is the repository's benchmark: it serves the gateway
// from a child process built the way icgserve serves, drives it over
// loopback TCP from this one generator process (one connection per CPU,
// and GOMAXPROCS the CPU count on both sides), checks every session's
// event stream hash for hash against an in-process reference, and prints
// every metric by name with its unit.
//
//	icgbench [-workload NAME] [-seed N] [-seconds S] [-trace 0|1]
//	    run one workload (default: all four) and print its metrics; the
//	    last line of output is one JSON object. -trace 1 runs the traced
//	    pass instead: per-layer metrics, the closure ledger, trace.json.
//
//	icgbench -record FILE [-runs N] [-workload NAME] [-seed N]
//	    append N untraced runs of each workload to FILE, seeds N.. on.
//
//	icgbench -compare BASE.json NEW.json
//	    compare two recorded files run by run, with each metric's bound
//	    from BENCHMARK.json, one row per workload.
//
// bench/README.md defines the workloads and the metrics.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/session"
)

// setupReps is how many times a run sets the server up; setup_s is the
// median.
const setupReps = 5

// latencyLimit is the open-loop latency budget: one chunk period. A run
// whose event latency p99 exceeds it, or whose generator ran more than
// lagLimit late, measured an overloaded box, not the server.
const (
	latencyLimit = 200 * time.Millisecond
	lagLimit     = 20 * time.Millisecond
)

func main() {
	childMain()
	var (
		name    = flag.String("workload", "", "workload to run; all four when empty")
		seed    = flag.Int64("seed", 1, "seed of the inputs and the schedule")
		seconds = flag.Float64("seconds", 10, "measured window in seconds")
		trace   = flag.Int("trace", 0, "1: traced pass, printing per-layer metrics and the ledger")
		workdir = flag.String("workdir", filepath.Join(".bench_build", "work"), "directory for WAL files and trace.json")
		record  = flag.String("record", "", "append -runs untraced runs of each workload to this JSON file")
		runs    = flag.Int("runs", 10, "runs per workload with -record")
		compare = flag.Bool("compare", false, "compare two recorded files: -compare BASE.json NEW.json")
		bench   = flag.String("benchmark", "BENCHMARK.json", "the benchmark contract, for the -compare bounds")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: icgbench -compare BASE.json NEW.json")
			os.Exit(2)
		}
		if err := compareFiles(os.Stdout, *bench, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	// One connection and one scheduler thread per CPU, in the generator
	// and in the server child alike.
	nproc := runtime.NumCPU()
	o := options{seed: *seed, seconds: *seconds, conns: nproc, procs: nproc, workdir: *workdir, traced: *trace == 1}
	selected := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "icgbench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		selected = []workload{w}
	}
	for _, w := range selected {
		if err := o.check(w, nproc); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	runtime.GOMAXPROCS(o.procs)
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *record != "" {
		if err := recordRuns(*record, selected, o, *runs); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	code := 0
	for _, w := range selected {
		res := runWorkload(w, o)
		res.print(os.Stdout)
		code = max(code, res.exitCode())
	}
	os.Exit(code)
}

// runWorkload runs one workload once and returns its metrics, untraced
// or traced as o says.
func runWorkload(w workload, o options) *result {
	w = o.apply(w)
	res := newResult(w.name, o.seed)
	res.traced = o.traced
	p, err := buildPlan(w, o)
	if err != nil {
		res.fail("plan: %v", err)
		return res
	}
	var untraced serverWindow
	if o.traced {
		// A traced run first makes an identical pass with tracing off: it
		// gives the server's throughput and CPU per pair, which are measured
		// untraced, and the base of the tracing overhead.
		q := *p
		q.o.traced = false
		if _, untraced, _, err = netPass(&q); err != nil {
			res.fail("untraced pass: %v", err)
			return res
		}
	}
	nr, sw, setups, err := netPass(p)
	if err != nil {
		res.fail("run: %v", err)
		return res
	}
	if !o.traced {
		untraced = sw
	}
	r := nr.run
	sent, opened := make([]int, len(p.sess)), make([]bool, len(p.sess))
	for i := range r.runs {
		sent[i], opened[i] = r.runs[i].samples, r.runs[i].opened
	}
	ref, err := computeReference(p, sent, opened, o.traced)
	if err != nil {
		res.fail("reference: %v", err)
		return res
	}
	if o.corruptRef {
		for i := range opened {
			if opened[i] {
				ref.hash[i] ^= 1
				break
			}
		}
	}
	lat := verify(res, p, r, ref, sw)
	machineFacts(res, p)

	res.set("setup_s", median(setups))
	res.set("throughput_pairs_per_s", float64(untraced.pairs)/untraced.wall.Seconds())
	res.setQ("event_latency_p50_ms", lat, 0.5, 1e-6)
	res.setQ("event_latency_p99_ms", lat, 0.99, 1e-6)
	res.setQ("event_latency_p999_ms", lat, 0.999, 1e-6)
	var closeR, lag reservoir
	for _, cs := range r.conns {
		closeR.merge(&cs.close)
		lag.merge(&cs.lag)
	}
	res.setQ("close_latency_p99_ms", &closeR, 0.99, 1e-6)
	res.set("server_cpu_us_per_pair", untraced.cpuPerPair())
	// The server's memory is read on the pass whose events were verified:
	// tracing runs in the generator only.
	heap := float64(sw.heapLive) / 1024 / float64(w.sessions)
	rss := float64(sw.rss-nr.rssListen) / float64(w.sessions)
	res.set("heap_kb_per_session", heap)
	res.set("rss_kb_per_session", rss)
	res.extra["RAM per session, peak"] = fmt.Sprintf("%.1f KB (VmHWM)", float64(sw.peakRSS-nr.rssListen)/float64(w.sessions))
	model := float64(core.StreamingRAM(fs, p.scfg.Stream).Total()) / 1024
	res.extra["RAM per session, modeled"] = fmt.Sprintf("%.1f KB (core.StreamingRAM, MCU profile); live heap/modeled %.2f, VmRSS/modeled %.2f",
		model, heap/model, rss/model)
	lagP99, _ := lag.q(0.99)
	res.extra["generator lag p99"] = fmt.Sprintf("%.3f ms", lagP99/1e6)
	res.extra["pairs, window"] = fmt.Sprintf("%d pairs in %.2f s (first push to last CloseAck)", sw.pairs, sw.wall.Seconds())
	res.extra["set-up times"] = fmt.Sprint(setups)
	if w.openLoop {
		p99, ok := lat.q(0.99)
		if ok && p99 > float64(latencyLimit) || lagP99 > float64(lagLimit) {
			res.invalid = fmt.Sprintf("event latency p99 %.1f ms (limit %v) or generator lag p99 %.1f ms (limit %v)",
				p99/1e6, latencyLimit, lagP99/1e6, lagLimit)
		}
	}
	if !o.traced {
		return res
	}
	eng, et, err := sessionLayer(p)
	if err != nil {
		res.fail("session layer run: %v", err)
		return res
	}
	l := &layerRun{p: p, net: nr, sw: sw, ref: ref, untrace: untraced.cpuPerPair(), eng: eng, engT: et}
	if err := l.layers(res); err != nil {
		res.fail("per-layer metrics: %v", err)
	}
	path := filepath.Join(o.workdir, "trace-"+w.name+".json")
	if err := writeTrace(path, r, eng, ref); err != nil {
		res.fail("trace.json: %v", err)
	}
	res.extra["trace"] = path
	return res
}

// netPass sets the server up setupReps times, keeping the last set-up
// for the measured window.
func netPass(p *plan) (*netRun, serverWindow, []float64, error) {
	var setups []float64
	for rep := 0; ; rep++ {
		nr, err := setupNet(p, rep)
		if err != nil {
			return nil, serverWindow{}, nil, err
		}
		setups = append(setups, nr.setup.Seconds())
		if rep < setupReps-1 {
			if err := nr.teardown(); err != nil {
				return nil, serverWindow{}, nil, err
			}
			continue
		}
		sw, err := nr.measure()
		return nr, sw, setups, err
	}
}

// verify checks every subscriber's copy of every session against the
// reference, counts operations and failures into res, and returns the
// event latencies of the sessions that matched.
func verify(res *result, p *plan, r *run, ref *reference, sw serverWindow) *reservoir {
	lat := &reservoir{}
	period := int64(p.w.chunkPeriod())
	copies := 1
	if r.crossSub {
		copies = 2
	}
	g := sw.stats.Gateway
	res.failN(int(g.EventsDropped), "%d events dropped at subscriber queues", g.EventsDropped)
	res.failN(int(g.ProtocolErrs), "%d protocol errors", g.ProtocolErrs)
	if n := r.strays.Load(); n > 0 {
		res.failN(int(n), "%d events for unknown sessions", n)
	}
	pairs := 0
	for i, s := range p.sess {
		st := &r.runs[i]
		res.ops++
		if st.openErr != nil {
			res.fail("session %d: open: %v", s.id, st.openErr)
			continue
		}
		res.ops += st.chunks + ref.events[i]*copies
		pairs += st.samples
		if st.subErr != nil {
			res.fail("session %d: subscribe: %v", s.id, st.subErr)
		}
		if st.pushErr != nil {
			res.ops++
			res.fail("session %d: push: %v", s.id, st.pushErr)
		}
		if st.closeErr != nil && !(ref.evicted[i] && evictionClose(st.closeErr)) {
			res.fail("session %d: close: %v", s.id, st.closeErr)
		}
		if p.w.durable && s.evicts != ref.evicted[i] {
			res.fail("session %d: the eviction probe and the reference disagree", s.id)
		}
		streams := []*evStream{&st.own}
		if r.crossSub {
			streams = append(streams, &st.sub)
		}
		for c, es := range streams {
			if es.h.sum != ref.hash[i] || es.h.n != ref.events[i] {
				res.failN(max(ref.events[i], 1), "session %d copy %d: %d events hash %x, reference %d events hash %x",
					s.id, c, es.h.n, es.h.sum, ref.events[i], ref.hash[i])
			}
		}
		if st.own.h.sum != ref.hash[i] || len(st.own.recv) != len(ref.trig[i]) {
			continue
		}
		for j, k := range ref.trig[i] {
			if k < 0 {
				continue
			}
			due := r.streamStart + int64(s.start) + int64(k)*period
			if !p.w.openLoop {
				due = st.dues[k]
			}
			lat.add(float64(st.own.recv[j] - due))
		}
	}
	if g := sw.stats.Gateway; g.SamplesIn != uint64(pairs) {
		res.fail("server ingested %d pairs, generator sent %d", g.SamplesIn, pairs)
	}
	return lat
}

// evictionClose reports whether a close error is the one a session the
// server evicted returns.
func evictionClose(err error) bool {
	return errors.Is(err, session.ErrSessionEvicted) ||
		errors.Is(err, gateway.ErrRejected) && strings.HasSuffix(err.Error(), fmt.Sprintf("(code %d)", gateway.CodeEvicted))
}

func machineFacts(res *result, p *plan) {
	res.extra["machine"] = fmt.Sprintf("nproc %d, %s, GOMAXPROCS %d, %d conns, WAL fs %s",
		runtime.NumCPU(), runtime.Version(), p.o.procs, p.o.conns, fsName(p.o.workdir))
	res.extra["sessions"] = fmt.Sprintf("%d (%d opened in set-up)", len(p.sess), p.nInit)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
