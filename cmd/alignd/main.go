// Command alignd serves the simulated PiM aligner over HTTP, backed by
// the host package's streaming dispatch sessions: each POST /align
// request admits its pairs incrementally into a session, which
// accumulates rank-sized micro-batches (flushing on size or on the
// linger deadline) and streams results back in submission order as
// NDJSON while later pairs are still being admitted.
//
// Requests pass a layered admission stack before a session is built:
// token-bucket rate limiting (global, per-client key, per-IP), then the
// pressure-driven shed ladder, then a two-class priority gate.
// Interactive requests (X-Priority: interactive; score-only) are
// granted capacity before bulk (CIGAR) work; under sustained overload
// the daemon degrades bulk service in explicit rungs — narrow
// score-only kernel, then no host verify, then 429 for bulk — with
// every downgrade labelled on the results and every 429 carrying a
// Retry-After computed from the observed drain rate.
//
// Every request carries a trace ID — the caller's X-Trace-Id header if
// given, minted otherwise — echoed on the response, stamped on each
// NDJSON result line, and threaded through logs, flight-recorder entries
// and Perfetto slices for end-to-end correlation.
//
// Endpoints:
//
//	POST /align         body: JSON array of pairs, or NDJSON (one pair
//	                    object per line): {"id":0,"a":"ACGT...","b":"..."}.
//	                    Response: NDJSON, one result per pair in submission
//	                    order. 429 + Retry-After when refused by admission.
//	GET  /metrics       Prometheus-text serving metrics (queue depth,
//	                    micro-batch occupancy, admission rejects, shed
//	                    level, latency, per-stage histograms).
//	GET  /healthz       liveness probe; 503 "draining" during shutdown.
//	GET  /admin/config  live config in canonical file form.
//	POST /admin/config  hot-reload the dynamic keys (rates, queue sizing,
//	                    shed thresholds, cache size limits); a change to a
//	                    static key is refused with 400 naming it.
//	GET  /admin/limits  limiter/gate/shed statistics as JSON.
//	GET  /admin/shed    shed ladder state; POST pins or releases it.
//	GET  /debug/vars    metrics snapshot + Go runtime stats as JSON.
//	GET  /debug/flight  flight-recorder dump: the last notable events
//	                    (admissions, rejections, shed transitions,
//	                    faults, escalations, slow requests) as JSON.
//	GET  /debug/trace   live Perfetto capture of the next ?sec=N seconds
//	                    of host wall-clock spans (default 1, max 60).
//	GET  /debug/pprof/  standard Go profiling endpoints.
//
// SIGTERM/SIGINT advertises draining on /healthz for -drain-wait, then
// drains in-flight requests, logs the latency summary and exits 0.
//
// Usage:
//
//	alignd [-config align.yaml] [-check-config] [flags...]
//
// Configuration comes from -config (see internal/admission/config for
// the format and its key table, which also names each key's flag and
// whether it hot-reloads); every flag overrides its config key when set
// explicitly. -check-config validates and prints the effective config
// in canonical form, then exits without serving.
//
// Client mode: alignd -post URL -a queries.fa -b targets.fa sends the
// FASTA pairs to a running daemon and prints results in pimalign's
// output format (for diffing the serving path against the one-shot CLI).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pimnw/internal/admission/config"
	"pimnw/internal/cache"
	"pimnw/internal/core"
	"pimnw/internal/host"
	"pimnw/internal/obs"
	"pimnw/internal/pim"
)

func main() {
	obs.SetLogPrefix("alignd")
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "alignd:", err)
		os.Exit(1)
	}
}

// cli holds the flags that are not configuration keys.
type cli struct {
	configPath, addrFile, post, aPath, bPath string
	checkConfig, verbose                     bool
}

// bindFlags declares alignd's flag set on fs: the flags below, then one
// per configuration key that has a flag (see config.Keys), whose
// defaults are config.Default's.
func bindFlags(fs *flag.FlagSet) *cli {
	var c cli
	fs.StringVar(&c.configPath, "config", "", "configuration file (strict YAML subset; flags override its fields)")
	fs.BoolVar(&c.checkConfig, "check-config", false, "validate the effective config, print its canonical form, and exit")
	fs.StringVar(&c.addrFile, "addr-file", "", "write the bound address to FILE once listening (for scripts using port 0)")
	fs.StringVar(&c.post, "post", "", "client mode: POST the -a/-b FASTA pairs to this daemon URL and print pimalign-style results")
	fs.StringVar(&c.aPath, "a", "", "FASTA file of query sequences (client mode)")
	fs.StringVar(&c.bPath, "b", "", "FASTA file of target sequences (client mode)")
	fs.BoolVar(&c.verbose, "v", false, "verbose (debug) logging")
	config.Default().BindFlags(fs)
	return &c
}

func run() error {
	opt := bindFlags(flag.CommandLine)
	flag.Parse()
	if opt.verbose {
		obs.SetVerbosity(1)
	}
	if opt.post != "" {
		return runClient(opt.post, opt.aPath, opt.bPath)
	}

	cfg := config.Default()
	if opt.configPath != "" {
		var err error
		if cfg, err = config.Load(opt.configPath); err != nil {
			return err
		}
	}
	if err := cfg.ApplyFlags(flag.CommandLine); err != nil {
		return err
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	scfg, err := sessionConfig(cfg)
	if err != nil {
		return err
	}
	if err := scfg.Host.Validate(); err != nil {
		return err
	}
	if opt.checkConfig {
		_, err := cfg.WriteTo(os.Stdout)
		return err
	}
	obs.SetLogJSON(cfg.Server.LogJSON)
	obs.SetDefault(obs.NewRegistry())
	obs.SetFlight(obs.NewFlightRecorder(cfg.Server.FlightEvents))

	// The cache opens after the metrics registry exists (its counters bind
	// at Open) and attaches to the session template, so every request's
	// plan inherits the shared handle.
	if cfg.Cache.Dir != "" {
		c, err := openCache(cfg)
		if err != nil {
			return err
		}
		defer c.Close()
		scfg.Cache = c
		st := c.Stats()
		obs.Logf("result cache at %s: %d entries, %d WAL bytes, %d repairs (fsync %s)",
			cfg.Cache.Dir, st.Entries, st.WALBytes, st.Repairs, cfg.Cache.Fsync)
	}

	sv, err := newServer(cfg, scfg)
	if err != nil {
		return err
	}
	sv.start()
	defer sv.Close()
	ln, err := net.Listen("tcp", cfg.Server.Addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if opt.addrFile != "" {
		if err := os.WriteFile(opt.addrFile, []byte(bound+"\n"), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	srv := sv.httpServer()
	effBatch := scfg.MaxBatchPairs
	if effBatch == 0 {
		effBatch = 4 * pim.DPUsPerRank
	}
	// In fleet mode the align-section rank count is overridden by the
	// per-backend spec, so the banner counts the ranks that actually serve.
	servingRanks := cfg.Align.Ranks
	if bes := scfg.Host.Backends; len(bes) > 0 {
		servingRanks = 0
		for _, be := range bes {
			servingRanks += be.Ranks()
		}
	}
	obs.Logf("serving on http://%s (%d ranks, band %d, %s narrow engine, micro-batches of %d pairs, %d request slots)",
		bound, servingRanks, cfg.Align.Band, core.NarrowEngine(), effBatch, cfg.Queues.Slots)
	if bes := scfg.Host.Backends; len(bes) > 0 {
		parts := make([]string, len(bes))
		for i, be := range bes {
			parts[i] = fmt.Sprintf("%s (%d ranks)", be.Name(), be.Ranks())
		}
		obs.Logf("fleet placement across %d backends: %s", len(bes), strings.Join(parts, ", "))
	}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		// Advertise draining first so load balancers stop routing here,
		// hold the listener open for the drain window, then shut down.
		sv.draining.Store(true)
		obs.Logf("%s: draining (healthz 503 for %s), then stopping", s, cfg.Server.DrainWait)
		time.Sleep(cfg.Server.DrainWait)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	logServingSummary()
	return nil
}

// openCache builds the result cache from the config's cache section.
func openCache(cfg *config.Config) (*cache.Cache, error) {
	pol, err := cache.ParseFsyncPolicy(cfg.Cache.Fsync)
	if err != nil {
		return nil, err
	}
	return cache.Open(cache.Options{
		Dir:             cfg.Cache.Dir,
		Fsync:           pol,
		FsyncInterval:   cfg.Cache.FsyncInterval,
		MaxEntries:      cfg.Cache.MaxEntries,
		HotEntries:      cfg.Cache.HotEntries,
		CompactInterval: cfg.Cache.CompactInterval,
	})
}

// sessionConfig assembles the per-request session template from the
// align, fleet and session sections.
func sessionConfig(cfg *config.Config) (host.SessionConfig, error) {
	hcfg, err := cfg.Align.Config()
	if err != nil {
		return host.SessionConfig{}, err
	}
	return host.SessionConfig{
		Host:                 hcfg,
		MaxBatchPairs:        cfg.Session.BatchPairs,
		MaxLinger:            cfg.Session.Linger,
		QueueLimit:           cfg.Session.QueueLimit,
		MaxConcurrentBatches: cfg.Session.MaxConcurrent,
	}, nil
}

// logServingSummary reports the session-layer latency distribution at
// shutdown (p50/p99 via the histogram quantile estimator).
func logServingSummary() {
	snap := obs.Default().Snapshot()
	h, ok := snap.Histograms["session_pair_latency_seconds"]
	if !ok || h.Count == 0 {
		obs.Logf("served 0 pairs")
		return
	}
	obs.Logf("served %d pairs: latency p50 %.1fms, p99 %.1fms",
		h.Count, h.Quantile(0.5)*1e3, h.Quantile(0.99)*1e3)
}
