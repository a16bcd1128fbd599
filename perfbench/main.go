// Command perfbench is the NaLIX serving benchmark. It stands up the
// in-process HTTP server the way nalix-serve's defaults configure it
// (one cached engine session per GOMAXPROCS, one shard, request tracing
// always on), drives /ask with one of three seeded workloads, checks
// every answer against the committed reference digests, and prints the
// result as one JSON line:
//
//	perfbench --workload study-73k --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the same
// stream twice, untraced and then with spans recorded at the layer
// boundaries, replays the stream's questions through each layer's entry
// points, and reports the per-layer metrics. -record regenerates the
// reference answers (see README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"nalix/internal/dataset"
)

// workload is one traffic mix the benchmark can drive.
type workload struct {
	name  string
	scale int  // dataset.Generate scale of the corpus
	study bool // open-loop study traffic; otherwise closed-loop lookups
	// clients is the closed-loop client count (0 = one per CPU).
	clients int
	// setups is how many times a run builds the stack, and warmups how
	// many of the last stacks it warms up; setup_s and warmup_s are the
	// medians.
	setups, warmups int
	// replay bounds how many distinct questions the traced run replays
	// through the layer entry points.
	replay int
}

var workloads = []*workload{
	{name: "study-73k", scale: 1, study: true, setups: 11, warmups: 5, replay: 200},
	{name: "lookup-73k", scale: 1, setups: 21, warmups: 11, replay: 300},
	{name: "lookup-1M", scale: 14, clients: 1, setups: 5, warmups: 5, replay: 40},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: study-73k, lookup-73k or lookup-1M")
	seed := flag.Int64("seed", 1, "seed of the generated questions and arrivals")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	rec := flag.String("record", "", "write the reference answers under this directory and exit")
	flag.Parse()

	if *rec != "" {
		for _, scale := range []int{1, 14} {
			if err := record(*rec, scale); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				os.Exit(1)
			}
		}
		return
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	var (
		res *result
		err error
	)
	if *trace == 1 {
		res, err = runTraced(w, *seed, *seconds)
	} else {
		res, err = runPlain(w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// inputs is what every run prepares before its first setup: the
// reference answers and the generated plan.
type inputs struct {
	refs map[string]reference
	plan plan
}

func prepare(w *workload, seed int64, seconds float64, sessions int) (*inputs, error) {
	refs, err := loadReferences(w.scale)
	if err != nil {
		return nil, err
	}
	v := corpusVocab(dataset.Generate(1))
	return &inputs{refs: refs, plan: makePlan(w, v, refs, seed, seconds, sessions)}, nil
}

// runPlain is the untraced run: set up several times and warm up the
// last few stacks (set-up and warm-up times are medians), drive the
// timed phase on the last stack, and report the end-to-end metrics.
func runPlain(w *workload, seed int64, seconds float64) (*result, error) {
	in, err := prepare(w, seed, seconds, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	tally := &tally{refs: in.refs}
	base := liveHeapMB()
	var setups, warmups []float64
	var st *stack
	for i := 0; i < w.setups; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, err
			}
		}
		warm := i >= w.setups-w.warmups
		var setup, warmup float64
		st, setup, warmup, err = standUp(w, in, false, warm, tally)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup)
		if warm {
			warmups = append(warmups, warmup)
		}
	}
	defer st.close()
	tally.report("warmup")
	fmt.Printf("set-up s %.4f, warm-up s %.4f\n", setups, warmups)

	heap := liveHeapMB() - base

	run := drive(st, w, in.plan.Stream, seconds, tally, nil)
	tally.report("timed")
	if err := st.close(); err != nil {
		return nil, err
	}

	lat := run.latenciesMs()
	return &result{
		Correct:   tally.failed == 0,
		Attempted: tally.attempted,
		Failed:    tally.failed,
		Metrics: map[string]metric{
			"setup_s":    {median(setups), "s"},
			"warmup_s":   {median(warmups), "s"},
			"heap_mb":    {heap, "MB"},
			"ask_p50_ms": {quantile(lat, 0.50), "ms"},
			"ask_p90_ms": {quantile(lat, 0.90), "ms"},
			"ask_rps":    {run.rps(), "req/s"},
		},
	}, nil
}

// standUp builds a stack from a clean heap and, if warm, warms it up. It
// returns the stack with its set-up and warm-up seconds. Every timed
// phase, traced or not, runs on a stack stood up this way.
func standUp(w *workload, in *inputs, traced, warm bool, t *tally) (st *stack, setup, warmupS float64, err error) {
	runtime.GC()
	t0 := time.Now()
	st, err = newStack(w.scale, runtime.GOMAXPROCS(0), traced)
	if err != nil {
		return nil, 0, 0, err
	}
	setup = time.Since(t0).Seconds()
	if !warm {
		return st, setup, 0, nil
	}
	// A collection cycle left running by the set-up would land in some
	// warm-ups and not others; start each from a clean heap.
	runtime.GC()
	t1 := time.Now()
	if err := warmup(st, in.plan, t); err != nil {
		st.close()
		return nil, 0, 0, err
	}
	return st, setup, time.Since(t1).Seconds(), nil
}

// liveHeapMB is the heap in use after a forced collection, in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// quantile returns the nearest-rank q-quantile of the samples (sorted in
// place); NaN for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
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

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
