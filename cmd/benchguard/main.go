// Command benchguard compares fresh `go test -bench` output against the
// committed BENCH_*.json baselines and fails when a benchmark regresses
// past a threshold (default 1.5x). verify.sh runs it after the bench
// smoke pass with -threshold 2, so a change that makes a guarded path
// more than twice as slow as its baseline fails the gate the same way a
// broken test does:
//
//	go test -run '^$' -bench 'BenchmarkAsk$' -benchtime 100x -count 5 . > bench.out
//	go run ./cmd/benchguard -threshold 2 bench.out
//
// Baselines are the `benchmarks` arrays of every BENCH_*.json in the
// repository root ({"name": "BenchmarkAsk/untraced", "ns_per_op": N});
// baseline files without that array (e.g. BENCH_serve.json, which holds
// load-generator percentiles) are skipped. A baseline file may also
// carry a `ratios` array ({"name": A, "other": B, "max_ratio": 1.05})
// pairing two benchmarks from the same run: A's ns/op must stay within
// max_ratio of B's, a machine-independent relative-overhead gate. A
// ratio entry with `min_procs` only applies when the fresh run had at
// least that many CPUs (read from the `-N` GOMAXPROCS name suffix), so
// parallel-speedup gates don't fail on small CI runners.
// Measurements take the MIN
// ns/op across -count repetitions — the least-noise estimate of the
// code's true cost — and the `-N` GOMAXPROCS suffix is stripped so
// baselines are portable across machines.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

func main() {
	threshold := flag.Float64("threshold", 1.5, "fail when measured ns/op exceeds baseline*threshold")
	glob := flag.String("baselines", "BENCH_*.json", "glob of baseline files, relative to the current directory")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: benchguard [-threshold 1.5] [-baselines glob] bench-output-file...")
		os.Exit(2)
	}
	if err := run(*threshold, *glob, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(1)
	}
}

// baselineFile is the subset of the BENCH_*.json schema benchguard
// reads; files whose Benchmarks array is empty carry no guarded
// baselines and are skipped. The optional Ratios array pairs two
// benchmarks measured in the same run: measured[name]/measured[other]
// must stay at or under max_ratio. Ratio gates guard relative overhead
// (e.g. the sampled ask path within 5% of the traced one) and are
// machine-independent, since both sides come from the same run.
type baselineFile struct {
	Benchmarks []struct {
		Name    string  `json:"name"`
		NsPerOp float64 `json:"ns_per_op"`
	} `json:"benchmarks"`
	Ratios []struct {
		Name     string  `json:"name"`
		Other    string  `json:"other"`
		MaxRatio float64 `json:"max_ratio"`
		MinProcs int     `json:"min_procs,omitempty"`
	} `json:"ratios"`
}

// baseline is one guarded benchmark with its provenance.
type baseline struct {
	name    string
	nsPerOp float64
	file    string
}

// ratioGate is one guarded benchmark pair with its provenance.
type ratioGate struct {
	name     string
	other    string
	maxRatio float64
	minProcs int
	file     string
}

func run(threshold float64, glob string, outFiles []string) error {
	if threshold <= 1 {
		return fmt.Errorf("-threshold must be > 1, got %v", threshold)
	}
	baselines, ratios, err := loadBaselines(glob)
	if err != nil {
		return err
	}
	if len(baselines) == 0 {
		return fmt.Errorf("no baselines found under %q", glob)
	}
	measured := make(map[string]float64)
	procs := 1
	for _, f := range outFiles {
		p, err := readBenchOutput(f, measured)
		if err != nil {
			return err
		}
		if p > procs {
			procs = p
		}
	}
	if len(measured) == 0 {
		return fmt.Errorf("no benchmark results in %s", strings.Join(outFiles, ", "))
	}

	var regressions []string
	for _, b := range baselines {
		got, ok := measured[b.name]
		if !ok {
			// A baseline with no fresh measurement means the benchmark
			// was renamed or dropped without updating its BENCH file —
			// fail so the baseline cannot silently go stale.
			regressions = append(regressions,
				fmt.Sprintf("%s: no measurement (baseline %s expects %.0f ns/op)", b.name, b.file, b.nsPerOp))
			continue
		}
		ratio := got / b.nsPerOp
		verdict := "ok"
		if ratio > threshold {
			verdict = "REGRESSION"
			regressions = append(regressions,
				fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f (%.2fx > %.2fx allowed, %s)",
					b.name, got, b.nsPerOp, ratio, threshold, b.file))
		}
		fmt.Printf("benchguard: %-40s %10.0f ns/op  baseline %10.0f  %5.2fx  %s\n",
			b.name, got, b.nsPerOp, ratio, verdict)
	}
	for _, g := range ratios {
		if g.minProcs > 0 && procs < g.minProcs {
			fmt.Printf("benchguard: %-40s skipped (ran on %d proc(s), gate needs >= %d)\n",
				g.name, procs, g.minProcs)
			continue
		}
		got, ok := measured[g.name]
		other, okOther := measured[g.other]
		if !ok || !okOther {
			regressions = append(regressions,
				fmt.Sprintf("%s vs %s: missing measurement for the ratio gate (%s)", g.name, g.other, g.file))
			continue
		}
		ratio := got / other
		verdict := "ok"
		if ratio > g.maxRatio {
			verdict = "REGRESSION"
			regressions = append(regressions,
				fmt.Sprintf("%s: %.0f ns/op is %.3fx of %s (%.0f ns/op), > %.3fx allowed (%s)",
					g.name, got, ratio, g.other, other, g.maxRatio, g.file))
		}
		fmt.Printf("benchguard: %-40s %5.3fx of %s (max %.3fx)  %s\n",
			g.name, ratio, g.other, g.maxRatio, verdict)
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%d benchmark(s) failed the guard:\n  %s",
			len(regressions), strings.Join(regressions, "\n  "))
	}
	return nil
}

// loadBaselines collects the guarded benchmarks and ratio gates from
// every baseline file matching the glob, sorted by name for
// deterministic reporting.
func loadBaselines(glob string) ([]baseline, []ratioGate, error) {
	files, err := filepath.Glob(glob)
	if err != nil {
		return nil, nil, err
	}
	sort.Strings(files)
	var out []baseline
	var gates []ratioGate
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return nil, nil, err
		}
		var bf baselineFile
		if err := json.Unmarshal(raw, &bf); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", f, err)
		}
		for _, b := range bf.Benchmarks {
			if b.Name == "" || b.NsPerOp <= 0 {
				return nil, nil, fmt.Errorf("%s: malformed baseline entry %+v", f, b)
			}
			out = append(out, baseline{name: b.Name, nsPerOp: b.NsPerOp, file: f})
		}
		for _, g := range bf.Ratios {
			if g.Name == "" || g.Other == "" || g.MaxRatio <= 0 {
				return nil, nil, fmt.Errorf("%s: malformed ratio entry %+v", f, g)
			}
			gates = append(gates, ratioGate{name: g.Name, other: g.Other, maxRatio: g.MaxRatio, minProcs: g.MinProcs, file: f})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	sort.Slice(gates, func(i, j int) bool { return gates[i].name < gates[j].name })
	return out, gates, nil
}

// procSuffix matches the -GOMAXPROCS suffix go test appends to
// benchmark names (BenchmarkAsk/traced-4 → BenchmarkAsk/traced).
var procSuffix = regexp.MustCompile(`-\d+$`)

// readBenchOutput parses `go test -bench` output lines of the form
//
//	BenchmarkAsk/traced-4   100   43061 ns/op   [extra metrics...]
//
// keeping the minimum ns/op seen per (suffix-stripped) benchmark name.
// It returns the GOMAXPROCS the run used, read from the name suffix
// (`go test` omits the suffix entirely on single-proc runs).
func readBenchOutput(path string, into map[string]float64) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	procs := 1
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		// fields: name iterations value unit [value unit ...]
		name := procSuffix.ReplaceAllString(fields[0], "")
		if m := procSuffix.FindString(fields[0]); m != "" {
			if p, err := strconv.Atoi(m[1:]); err == nil && p > procs {
				procs = p
			}
		}
		for i := 3; i < len(fields); i += 2 {
			if fields[i] != "ns/op" {
				continue
			}
			v, err := strconv.ParseFloat(fields[i-1], 64)
			if err != nil {
				return 0, fmt.Errorf("%s: bad ns/op in %q: %w", path, sc.Text(), err)
			}
			if prev, ok := into[name]; !ok || v < prev {
				into[name] = v
			}
			break
		}
	}
	return procs, sc.Err()
}
