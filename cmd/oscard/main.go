// Command oscard is the OSCAR reconstruction daemon: a long-running HTTP
// server that accepts reconstruction jobs as JSON, runs them through a
// shared execution engine with a bounded worker pool, and memoizes circuit
// executions per device configuration across requests. Fleet-mode jobs
// dispatch sampling across virtual multi-QPU fleets, optionally under
// injected fault scenarios (drift, dropouts, correlated queue spikes and
// retry storms) with risk-aware scheduling — retries, quarantine events,
// and learned tail estimates surface through /jobs, /stats, and /metrics.
// /stats (JSON) and /metrics (Prometheus text) render one server snapshot,
// so the counters they share always agree.
// Every job carries a trace: GET /jobs/{id}/trace returns the span tree
// (or Chrome trace-event JSON with ?format=chrome), and log lines are
// structured key=value pairs carrying trace_id and job_id throughout.
// Every finished reconstruction publishes its landscape into a
// content-addressed artifact store served at /landscapes — with -artifact-dir
// the artifacts persist on disk and survive restarts. On shutdown
// (SIGINT/SIGTERM) it drains in-flight jobs and spills its caches to
// -cache-file, from which the next start warm-starts.
//
// Usage:
//
//	oscard -addr :8080 -jobs 8 -cache-file /var/lib/oscard/cache.gob \
//	       -artifact-dir /var/lib/oscard/landscapes
//
// With -debug-addr a second listener serves net/http/pprof and /debug/vars
// off the public mux, so profiling endpoints never leak through -addr.
//
// See the README's "Running as a service" section for the job JSON schema
// and examples/service-client for a submit-and-poll client.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/dct"
	"repro/internal/qsim"
	"repro/internal/service"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		debugAddr  = flag.String("debug-addr", "", "serve net/http/pprof and /debug/vars here (empty = disabled)")
		jobs       = flag.Int("jobs", 8, "max concurrent reconstruction jobs")
		jobWorkers = flag.Int("job-workers", 0, "engine+solver workers per job (0 = GOMAXPROCS)")
		maxGrid    = flag.Int("max-grid", 1<<20, "max grid points per job")
		maxQubits  = flag.Int("max-qubits", 20, "max qubits for simulator backends")
		quantum    = flag.Float64("quantum", 0, "cache parameter quantization (0 = default)")
		cacheFile  = flag.String("cache-file", "", "spill caches here on shutdown and warm-start from it")
		artDir     = flag.String("artifact-dir", "", "persist published landscape artifacts here (empty = in-memory only)")
		artLRU     = flag.Int("artifact-lru", 32, "fitted interpolators kept hot for /landscapes queries")
		noTrace    = flag.Bool("no-trace", false, "disable per-job tracing and stage histograms")
		logLevel   = flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
		spillEvery = flag.Duration("cache-spill-interval", 0,
			"also spill caches to -cache-file on this interval (0 = only on shutdown), so a crash loses at most one interval of memoized executions")
		drain = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain timeout")
	)
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		level = slog.LevelInfo
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	slog.SetDefault(logger)
	// The vector kernels are picked once from CPUID; an AVX-only or
	// pre-AVX host runs the simulator and the dense DCT axes markedly
	// slower, and this line says which it got.
	logger.Info("vector kernels", "qsim", qsim.KernelName(), "dct", dct.KernelName())

	srv := service.New(service.Config{
		MaxConcurrent:  *jobs,
		JobWorkers:     *jobWorkers,
		MaxGridPoints:  *maxGrid,
		MaxQubits:      *maxQubits,
		Quantum:        *quantum,
		ArtifactDir:    *artDir,
		ArtifactLRU:    *artLRU,
		Logger:         logger,
		DisableTracing: *noTrace,
	})
	if *artDir != "" {
		n, loadErrs, dirErr := srv.ArtifactInfo()
		switch {
		case dirErr != "":
			logger.Warn("artifact dir unusable, serving memory-only", "dir", *artDir, "error", dirErr)
		case n > 0 || loadErrs > 0:
			logger.Info("serving landscape artifacts from disk", "dir", *artDir, "artifacts", n, "unreadable_skipped", loadErrs)
		}
	}
	if *cacheFile != "" {
		if err := srv.LoadCacheFile(*cacheFile); err != nil {
			logger.Warn("cache warm-start failed, continuing cold", "file", *cacheFile, "error", err.Error())
		} else if n := srv.CacheEntries(); n > 0 {
			logger.Info("warm-started execution cache", "file", *cacheFile, "entries", n)
		}
	}

	// Periodic background spill: the SaveCacheFile temp-file + atomic-rename
	// path guarantees a reader (or a crash mid-spill) never sees a torn
	// archive, so spilling while jobs run is safe.
	var spillDone chan struct{}
	stopSpill := make(chan struct{})
	if *cacheFile != "" && *spillEvery > 0 {
		spillDone = make(chan struct{})
		go func() {
			defer close(spillDone)
			t := time.NewTicker(*spillEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					if err := srv.SaveCacheFile(*cacheFile); err != nil {
						logger.Warn("periodic cache spill failed", "file", *cacheFile, "error", err.Error())
					} else {
						logger.Info("spilled execution cache", "file", *cacheFile, "entries", srv.CacheEntries())
					}
				case <-stopSpill:
					return
				}
			}
		}()
	}

	// Debug listener: pprof and expvar live on their own address so the
	// public API surface stays free of profiling endpoints.
	var dbg *http.Server
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dmux.Handle("/debug/vars", expvar.Handler())
		dbg = &http.Server{Addr: *debugAddr, Handler: dmux}
		go func() {
			logger.Info("debug listener up", "addr", *debugAddr)
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Warn("debug listener failed", "error", err.Error())
			}
		}()
	}

	hs := &http.Server{Addr: *addr, Handler: srv}
	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr, "max_jobs", *jobs)
		errc <- hs.ListenAndServe()
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		logger.Error("server failed", "error", err.Error())
		os.Exit(1)
	case got := <-sig:
		logger.Info("shutting down", "signal", got.String())
	}
	close(stopSpill)
	if spillDone != nil {
		// Wait out any in-flight periodic spill so it cannot race the
		// final one below.
		<-spillDone
	}

	// Stop accepting connections, let in-flight requests and jobs drain,
	// then cancel stragglers.
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("http shutdown", "error", err.Error())
	}
	if dbg != nil {
		_ = dbg.Shutdown(ctx)
	}
	srv.Drain(*drain)

	if *cacheFile != "" {
		if err := srv.SaveCacheFile(*cacheFile); err != nil {
			logger.Warn("cache spill failed", "file", *cacheFile, "error", err.Error())
		} else {
			logger.Info("spilled execution cache", "file", *cacheFile, "entries", srv.CacheEntries())
		}
	}
	logger.Info("bye")
}
