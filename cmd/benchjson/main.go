// Command benchjson converts `go test -bench` text output into a
// machine-readable JSON snapshot, so CI can archive the perf trajectory
// across changes (CI's BENCH_smoke.json artifact) without scraping logs.
//
// Usage:
//
//	go test -run=NONE -bench=. -benchmem ./... | benchjson -o BENCH.json
//
// Input comes from stdin (or files named as arguments); output is a
// JSON document listing every benchmark line with its iteration count
// and every reported metric (ns/op, B/op, allocs/op, MB/s and any
// custom ReportMetric units), tagged with the package it ran in.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Bench is one benchmark result line.
type Bench struct {
	Package    string  `json:"package,omitempty"`
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op,omitempty"`
	BytesPerOp float64 `json:"bytes_per_op,omitempty"`
	AllocsOp   float64 `json:"allocs_per_op,omitempty"`
	// Metrics holds every value-unit pair of the line, including the
	// three above and any custom units.
	Metrics map[string]float64 `json:"metrics"`
}

// Snapshot is the emitted document.
type Snapshot struct {
	GoOS       string  `json:"goos,omitempty"`
	GoArch     string  `json:"goarch,omitempty"`
	CPU        string  `json:"cpu,omitempty"`
	Benchmarks []Bench `json:"benchmarks"`
}

// parse consumes `go test -bench` output and collects benchmark lines.
func parse(r io.Reader) (*Snapshot, error) {
	snap := &Snapshot{Benchmarks: []Bench{}}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		case strings.HasPrefix(line, "goos:"):
			snap.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			snap.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			snap.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		fields := strings.Fields(line)
		// Name, iterations, then value-unit pairs.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		// Strip the trailing -N GOMAXPROCS suffix, as benchstat does.
		name := fields[0]
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		b := Bench{
			Package:    pkg,
			Name:       name,
			Iterations: iters,
			Metrics:    map[string]float64{},
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			unit := fields[i+1]
			b.Metrics[unit] = v
			switch unit {
			case "ns/op":
				b.NsPerOp = v
			case "B/op":
				b.BytesPerOp = v
			case "allocs/op":
				b.AllocsOp = v
			}
		}
		snap.Benchmarks = append(snap.Benchmarks, b)
	}
	return snap, sc.Err()
}

func run(in io.Reader, out io.Writer) error {
	snap, err := parse(in)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

func main() {
	outPath := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	var in io.Reader = os.Stdin
	if args := flag.Args(); len(args) > 0 {
		readers := make([]io.Reader, 0, len(args))
		for _, p := range args {
			f, err := os.Open(p)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchjson:", err)
				os.Exit(1)
			}
			defer f.Close()
			readers = append(readers, f)
		}
		in = io.MultiReader(readers...)
	}
	out := io.Writer(os.Stdout)
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		defer f.Close()
		out = f
	}
	if err := run(in, out); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
