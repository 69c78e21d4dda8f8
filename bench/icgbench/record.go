package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// recordFile is a set of untraced runs per workload, with their
// summaries: the committed trajectory points and the inputs of -compare.
type recordFile struct {
	Machine   map[string]string          `json:"machine"`
	Seconds   float64                    `json:"seconds"`
	Workloads map[string]*recordWorkload `json:"workloads"`
}

type recordWorkload struct {
	Runs    []recordRun        `json:"runs"`
	Summary map[string]summary `json:"summary"`
}

type recordRun struct {
	Seed    int64              `json:"seed"`
	Ops     int                `json:"ops"`
	Failed  int                `json:"failed"`
	Metrics map[string]float64 `json:"metrics"`
}

// summary is a metric's median and quartiles over a workload's runs.
type summary struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method).
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 0 {
		return math.NaN(), math.NaN()
	}
	if ld == 1 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := ld + 1
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// recordRuns appends runs untraced runs of each workload to path. Each
// run is a fresh process, and the workloads take turns so a slow spell of
// the machine spreads over all of them. Seeds continue from the runs
// already in the file.
func recordRuns(path string, selected []workload, o options, runs int) error {
	rf := &recordFile{Workloads: map[string]*recordWorkload{}}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, rf); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	rf.Seconds = o.seconds
	rf.Machine = map[string]string{
		"nproc": strconv.Itoa(runtime.NumCPU()), "go": runtime.Version(),
		"wal_fs": fsName(o.workdir), "cpu": cpuModel(),
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	for k := 0; k < runs; k++ {
		for _, w := range selected {
			rw := rf.Workloads[w.name]
			if rw == nil {
				rw = &recordWorkload{}
				rf.Workloads[w.name] = rw
			}
			seed := o.seed + int64(len(rw.Runs))
			cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-workdir", o.workdir)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			os.Stdout.Write(out)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			run, err := parseResult(out)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			run.Seed = seed
			rw.Runs = append(rw.Runs, run)
			rw.summarize()
			if err := writeJSON(path, rf); err != nil {
				return err
			}
		}
	}
	return nil
}

// parseResult reads the JSON result line a run prints last, and the
// bound-free metrics an untraced run prints as text lines before it.
func parseResult(out []byte) (recordRun, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res struct {
		Attempted int `json:"attempted"`
		Failed    int `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return recordRun{}, fmt.Errorf("no result line: %w", err)
	}
	run := recordRun{Ops: res.Attempted, Failed: res.Failed, Metrics: map[string]float64{}}
	for k, v := range res.Metrics {
		run.Metrics[k] = v.Value
	}
	for _, line := range lines[:len(lines)-1] {
		f := strings.Fields(string(line))
		if len(f) < 3 || !isPerLayer(f[0]) {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			run.Metrics[f[0]] = v
		}
	}
	return run, nil
}

func isPerLayer(name string) bool {
	for _, d := range perLayer {
		if d.name == name {
			return true
		}
	}
	return false
}

func (rw *recordWorkload) summarize() {
	rw.Summary = map[string]summary{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		var v []float64
		for _, r := range rw.Runs {
			if x, ok := r.Metrics[d.name]; ok {
				v = append(v, x)
			}
		}
		if len(v) == 0 {
			continue
		}
		q1, q3 := quartiles(v)
		rw.Summary[d.name] = summary{Unit: d.unit, Median: median(v), Q1: q1, Q3: q3, N: len(v)}
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
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

// contractMetric is one metric of BENCHMARK.json; a per-layer metric has
// no bound (0).
type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type contract struct {
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

func readContract(path string) (*contract, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// verdict compares one metric of one workload. base and next are paired
// run by run, in the order they were recorded (alternate the two sides
// when recording). A gain needs at least 10 pairs, at least nine in ten
// won, and a median gap wider than the base's quartile spread; a
// regression is a median worse by more than the bound; a spread wider
// than the bound leaves the metric unresolved unless every new run beats
// every base run. A metric without a bound shows a gain or no gain.
func verdict(m contractMetric, base, next []float64) string {
	if len(base) == 0 || len(next) == 0 {
		return "missing"
	}
	bm, nm := median(base), median(next)
	q1, q3 := quartiles(base)
	sign := 1.0 // positive change = worse
	if m.Better == "higher" {
		sign = -1
	}
	change := sign * (nm - bm) / bm
	pairs := min(len(base), len(next))
	wins := 0
	for i := 0; i < pairs; i++ {
		if sign*(next[i]-base[i]) < 0 {
			wins++
		}
	}
	allBetter := true
	for _, b := range base {
		for _, n := range next {
			if sign*(n-b) >= 0 {
				allBetter = false
			}
		}
	}
	tag := fmt.Sprintf("%+.1f%%", 100*(nm-bm)/bm)
	switch {
	case pairs >= 10 && 10*wins >= 9*pairs && math.Abs(nm-bm) > q3-q1 && change < 0:
		return "gain " + tag
	case m.Bound == 0:
		return "no gain " + tag
	case change > m.Bound:
		return "regressed " + tag
	case (q3-q1)/bm > m.Bound && !allBetter:
		return "unresolved " + tag
	default:
		return "same " + tag
	}
}

// compareFiles prints one row per workload with the verdict of every
// end-to-end metric and of every bound-free metric both files recorded,
// and fails when any metric regressed.
func compareFiles(out io.Writer, contractPath, basePath, newPath string) error {
	c, err := readContract(contractPath)
	if err != nil {
		return err
	}
	var files [2]recordFile
	for i, path := range []string{basePath, newPath} {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &files[i]); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	metrics := c.EndToEnd
	for _, m := range c.PerLayer {
		if recorded(&files[0], m.Name) && recorded(&files[1], m.Name) {
			metrics = append(metrics, m)
		}
	}
	header := []string{"workload", "pairs"}
	for _, m := range metrics {
		bound := "no bound"
		if m.Bound > 0 {
			bound = fmt.Sprintf("bound %.0f%%", 100*m.Bound)
		}
		header = append(header, fmt.Sprintf("%s (%s)", m.Name, bound))
	}
	rows := [][]string{header}
	regressed := false
	for _, w := range workloads {
		bw, nw := files[0].Workloads[w.name], files[1].Workloads[w.name]
		if bw == nil || nw == nil {
			continue
		}
		row := []string{w.name, strconv.Itoa(min(len(bw.Runs), len(nw.Runs)))}
		for _, m := range metrics {
			v := verdict(m, metricRuns(bw, m.Name), metricRuns(nw, m.Name))
			regressed = regressed || strings.HasPrefix(v, "regressed")
			row = append(row, v)
		}
		rows = append(rows, row)
	}
	fmt.Fprint(out, fmtTable(rows))
	if regressed {
		return errors.New("icgbench: at least one metric regressed beyond its bound")
	}
	return nil
}

// recorded reports whether any run of the file has the metric.
func recorded(rf *recordFile, name string) bool {
	for _, rw := range rf.Workloads {
		if len(metricRuns(rw, name)) > 0 {
			return true
		}
	}
	return false
}

func metricRuns(rw *recordWorkload, name string) []float64 {
	var v []float64
	for _, r := range rw.Runs {
		if x, ok := r.Metrics[name]; ok {
			v = append(v, x)
		}
	}
	return v
}
