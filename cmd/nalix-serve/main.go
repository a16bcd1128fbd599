// Command nalix-serve runs the NaLIX engine as an HTTP service: the
// four pipeline operations as POST endpoints (/ask, /translate, /query,
// /keyword) over a pool of engine sessions, plus the operational
// surface (/healthz, /metrics, /slo, /debug/cache, /debug/slow,
// /debug/traces, /debug/traces/<id>, /debug/profiles, /debug/pprof,
// /debug/vars). Every request gets a request ID, a pipeline trace, and
// one JSONL access-log record with its tail-sampling verdict.
//
// Usage:
//
//	nalix-serve [-addr :8080] [-doc file.xml | -corpus movies|library|bib|dblp]
//	            [-scale 1] [-shards 1] [-nocache]
//	            [-sessions N] [-slow 500ms] [-slow-stage 250ms] [-slow-cap 64]
//	            [-traces 256] [-access-log path] [-drain 10s]
//	            [-sample] [-sample-every 20] [-sample-threshold 0] [-sample-budget 16]
//	            [-slo ask:99.9:250ms] [-slo query:99:100ms]
//	            [-profile-dir /var/tmp/nalix-profiles] [-profile-cpu 2s]
//	            [-profile-cap 8] [-profile-cooldown 1m]
//
// The access log goes to stderr by default; "-access-log path" appends
// to a file instead. -slow-cap and -traces size the slow-query and
// kept-trace rings; -nocache turns off the layered query cache. -slo is
// repeatable, one objective per flag, in the form
// name:availability[:latency]. -sample enables tail-based trace
// sampling (keep errors, feedback, the latency tail, and a 1-in-N
// trickle of at most -sample-budget traces per second); without it
// every trace is retained. -profile-dir enables spike-triggered
// profiling capture: each capture records a -profile-cpu CPU profile,
// the ring keeps -profile-cap captures, and captures are at least
// -profile-cooldown apart. SIGINT/SIGTERM drain in-flight requests for
// up to -drain before exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"nalix"
	"nalix/internal/dataset"
	"nalix/internal/obs"
	"nalix/internal/obs/slo"
	"nalix/internal/server"
	"nalix/internal/xmldb"
)

// options collects the serving configuration from flags.
type options struct {
	addr      string
	docPath   string
	corpus    string
	scale     int
	shards    int
	sessions  int
	slow      time.Duration
	slowStage time.Duration
	slowCap   int
	traceCap  int
	accessLog string
	drain     time.Duration
	nocache   bool

	sample          bool
	sampleEvery     int
	sampleThreshold time.Duration
	sampleBudget    float64

	objectives objectiveFlags

	profileDir      string
	profileCPU      time.Duration
	profileCap      int
	profileCooldown time.Duration
}

// objectiveFlags is a repeatable -slo flag, parsed eagerly so a
// malformed objective fails at startup, not at first request.
type objectiveFlags []slo.Objective

func (o *objectiveFlags) String() string {
	var parts []string
	for _, obj := range *o {
		parts = append(parts, obj.Name)
	}
	return strings.Join(parts, ",")
}

func (o *objectiveFlags) Set(s string) error {
	obj, err := slo.ParseObjective(s)
	if err != nil {
		return err
	}
	*o = append(*o, obj)
	return nil
}

func main() {
	var opt options
	flag.StringVar(&opt.addr, "addr", ":8080", "listen address")
	flag.StringVar(&opt.docPath, "doc", "", "XML file to serve")
	flag.StringVar(&opt.corpus, "corpus", "bib", "built-in corpus when -doc is absent: movies, library, bib or dblp")
	flag.IntVar(&opt.scale, "scale", 1, "corpus scale factor for -corpus dblp (1 ≈ 73k nodes, 14 ≈ 1M, 140 ≈ 10M)")
	flag.IntVar(&opt.shards, "shards", 1, "windows each query evaluation is split into; >1 evaluates them in parallel")
	flag.IntVar(&opt.sessions, "sessions", runtime.GOMAXPROCS(0), "engine sessions (bounds concurrent evaluations)")
	flag.DurationVar(&opt.slow, "slow", server.DefaultSlowThreshold, "slow-query wall-time threshold (negative disables)")
	flag.DurationVar(&opt.slowStage, "slow-stage", 0, "slow-query per-stage threshold (0 derives half of -slow; negative disables)")
	flag.IntVar(&opt.slowCap, "slow-cap", server.DefaultSlowCapacity, "slow-query ring capacity")
	flag.IntVar(&opt.traceCap, "traces", server.DefaultTraceCapacity, "kept-trace ring capacity (backs /debug/traces)")
	flag.StringVar(&opt.accessLog, "access-log", "", "access-log file (JSONL, appended); empty logs to stderr")
	flag.DurationVar(&opt.drain, "drain", 10*time.Second, "graceful-shutdown drain timeout")
	flag.BoolVar(&opt.nocache, "nocache", false, "disable the layered query cache (translation, plan, result)")
	flag.BoolVar(&opt.sample, "sample", false, "enable tail-based trace sampling (errors, feedback and the latency tail always kept; normal traffic trickled)")
	flag.IntVar(&opt.sampleEvery, "sample-every", obs.DefaultSampleEvery, "with -sample: keep 1 in N of normal traffic")
	flag.DurationVar(&opt.sampleThreshold, "sample-threshold", 0, "with -sample: static latency floor that always retains a trace (0 relies on the adaptive rule)")
	flag.Float64Var(&opt.sampleBudget, "sample-budget", obs.DefaultSamplePerSec, "with -sample: normal-trace retention budget per second")
	flag.Var(&opt.objectives, "slo", "per-endpoint objective name:availability[:latency], e.g. ask:99.9:250ms (repeatable; enables /slo)")
	flag.StringVar(&opt.profileDir, "profile-dir", "", "directory for spike-triggered profiling captures (empty disables /debug/profiles)")
	flag.DurationVar(&opt.profileCPU, "profile-cpu", server.DefaultProfileCPUDuration, "CPU-profile duration per capture")
	flag.IntVar(&opt.profileCap, "profile-cap", server.DefaultProfileCapacity, "capture ring capacity on disk")
	flag.DurationVar(&opt.profileCooldown, "profile-cooldown", server.DefaultProfileCooldown, "minimum gap between captures")
	flag.Parse()

	if err := run(opt); err != nil {
		fmt.Fprintln(os.Stderr, "nalix-serve:", err)
		os.Exit(1)
	}
}

func run(opt options) error {
	if opt.sessions < 1 {
		opt.sessions = 1
	}
	doc, err := corpusDoc(opt.docPath, opt.corpus, opt.scale)
	if err != nil {
		return err
	}
	engines := make([]*nalix.Engine, opt.sessions)
	for i := range engines {
		e := nalix.New()
		// The server points every session at its registry (obs.Default
		// here), which is also where EnableCache binds its counters.
		if !opt.nocache {
			e.EnableCache(nalix.CacheConfig{})
		}
		if opt.shards > 1 {
			e.SetShards(opt.shards)
		}
		// One shared document: at -scale 14 the corpus is a
		// million nodes, so per-session copies would multiply load time
		// and resident memory by the session count.
		e.LoadDocument(doc)
		engines[i] = e
	}
	name := doc.Name

	var logW io.Writer = os.Stderr
	if opt.accessLog != "" {
		f, err := os.OpenFile(opt.accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "nalix-serve: closing access log:", cerr)
			}
		}()
		logW = f
	}

	cfg := server.Config{
		Engines:            engines,
		SlowThreshold:      opt.slow,
		SlowStageThreshold: opt.slowStage,
		SlowCapacity:       opt.slowCap,
		TraceCapacity:      opt.traceCap,
		AccessLog:          logW,
		Objectives:         opt.objectives,
		Profile: server.ProfileConfig{
			Dir:         opt.profileDir,
			CPUDuration: opt.profileCPU,
			Capacity:    opt.profileCap,
			Cooldown:    opt.profileCooldown,
		},
	}
	if opt.sample {
		sc := obs.DefaultSamplerConfig()
		sc.SampleEvery = opt.sampleEvery
		sc.SamplePerSec = opt.sampleBudget
		sc.Threshold = opt.sampleThreshold
		cfg.Sampling = &sc
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	served := make(chan error, 1)
	go func() { served <- srv.ListenAndServe(opt.addr) }()
	fmt.Fprintf(os.Stderr, "nalix-serve: serving %s on %s (%d nodes, %d sessions, %d shards, slow >= %v, sampling %v, %d objectives)\n",
		name, opt.addr, doc.Size(), opt.sessions, opt.shards, opt.slow, opt.sample, len(opt.objectives))

	select {
	case err := <-served:
		return err
	case sig := <-stop:
		fmt.Fprintf(os.Stderr, "nalix-serve: %v, draining (up to %v)\n", sig, opt.drain)
		ctx, cancel := context.WithTimeout(context.Background(), opt.drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		return nil
	}
}

// corpusDoc resolves the document to serve: an on-disk file, or a
// built-in corpus (with -scale applied to the generated dblp corpus).
func corpusDoc(docPath, corpus string, scale int) (*xmldb.Document, error) {
	if docPath != "" {
		f, err := os.Open(docPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return xmldb.Parse(filepath.Base(docPath), f)
	}
	switch corpus {
	case "movies":
		return dataset.Movies(), nil
	case "library":
		return dataset.Library(), nil
	case "bib":
		return dataset.Bib(), nil
	case "dblp":
		return dataset.Generate(scale), nil
	}
	return nil, fmt.Errorf("unknown corpus %q (movies, library, bib, dblp)", corpus)
}
