// Command blud serves the BLU controller over HTTP/JSON: topology
// inference (POST /v1/infer), streaming access-outcome ingestion
// (POST /v1/observe), joint access distributions (POST /v1/joint), and
// subframe scheduling (POST /v1/schedule), plus /healthz and a
// /metrics snapshot of the obs registry.
//
// /v1/observe folds per-subframe access outcomes into a bounded
// windowed estimator keyed by a session (topology) id; an infer naming
// the session instead of carrying measurements inline is solved from
// the session's live estimate, warm-started from its previous
// blueprint, and its cached result is invalidated exactly when the
// session's measurement digest moves.
//
// The infer and observe endpoints also speak a compact length-prefixed
// binary codec: send the request with
// "Content-Type: application/x-blu-binary" and/or ask for a binary
// response via the Accept header (see internal/serve/codec.go for the
// frame spec; bluload -codec binary drives it). Errors are always
// JSON.
//
// Usage:
//
//	blud [flags]
//
// Flags:
//
//	-addr a          listen address (default 127.0.0.1:8245; use :0 to
//	                 pick a free port — the bound address is printed as
//	                 "blud: listening on ADDR")
//	-workers n       compute pool size (0 = all cores)
//	-solver-parallel n  per-inference solver parallelism (default 1;
//	                 throughput comes from concurrent requests)
//	-queue n         work-queue depth; beyond it requests get 429 +
//	                 Retry-After (default 64)
//	-cache n         infer result-cache entries (default 1024, -1 off)
//	-sessions n      live observe-session bound; past it the LRU
//	                 session is evicted (default 256)
//	-window n        windowed-estimator capacity in sealed epochs
//	                 (default 64)
//	-timeout d       default per-request deadline (default 30s)
//	-max-timeout d   cap on client-supplied timeout_ms (default 2m)
//	-manifest file   write a JSON run manifest here on shutdown
//	-pprof addr      serve net/http/pprof on addr
//	-state dir       durable session state under this directory: every
//	                 accepted observe batch is WAL-logged before it
//	                 folds and the live sessions are snapshotted
//	                 periodically, so a restart (even kill -9) restores
//	                 the streaming state digest-identically and session
//	                 infers stay warm (DESIGN.md §15). Empty = memory-
//	                 only.
//	-snapshot-interval d  periodic snapshot cadence (default 30s;
//	                 requires -state)
//	-wal-sync d      WAL group-commit fsync interval; a crash loses at
//	                 most this window of acknowledged observes
//	                 (default 25ms; requires -state)
//
// Flag ranges are validated up front — a zero session bound, a
// non-positive window, or an unwritable -state directory is a clear
// startup error, not a latent panic.
//
// SIGTERM or SIGINT triggers a graceful drain: /healthz flips to 503
// "draining", the listener closes, every accepted request finishes, a
// final state snapshot is serialized (with -state), and the manifest
// is flushed.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"blu/internal/obs"
	"blu/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "blud:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("blud", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8245", "listen address (use :0 for a free port)")
	workers := fs.Int("workers", 0, "compute pool size (0 = all cores)")
	solverPar := fs.Int("solver-parallel", 1, "per-inference solver parallelism")
	queue := fs.Int("queue", 64, "work-queue depth (full queue answers 429)")
	cache := fs.Int("cache", 1024, "infer result-cache entries (-1 disables)")
	sessions := fs.Int("sessions", 256, "live observe-session bound (LRU beyond it)")
	window := fs.Int("window", 64, "windowed-estimator capacity in sealed epochs")
	timeout := fs.Duration("timeout", 30*time.Second, "default per-request deadline")
	maxTimeout := fs.Duration("max-timeout", 2*time.Minute, "cap on client timeout_ms")
	manifest := fs.String("manifest", "", "write a JSON run manifest to this file on shutdown")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address")
	stateDir := fs.String("state", "", "durable session state directory (empty = memory-only)")
	snapInterval := fs.Duration("snapshot-interval", 30*time.Second, "periodic snapshot cadence (requires -state)")
	walSync := fs.Duration("wal-sync", 25*time.Millisecond, "WAL group-commit fsync interval (requires -state)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}

	// Range-check every bound before anything starts: a bad flag is a
	// one-line startup error naming the flag, never a latent panic or a
	// daemon that silently cannot hold a session.
	switch {
	case *workers < 0:
		return fmt.Errorf("-workers must be >= 0 (0 = all cores), got %d", *workers)
	case *solverPar < 0:
		return fmt.Errorf("-solver-parallel must be >= 0 (0 = all cores), got %d", *solverPar)
	case *queue < 1:
		return fmt.Errorf("-queue must be >= 1, got %d", *queue)
	case *cache < -1:
		return fmt.Errorf("-cache must be >= -1 (-1 disables), got %d", *cache)
	case *sessions < 1:
		return fmt.Errorf("-sessions must be >= 1, got %d", *sessions)
	case *window < 1:
		return fmt.Errorf("-window must be >= 1, got %d", *window)
	case *timeout <= 0:
		return fmt.Errorf("-timeout must be positive, got %v", *timeout)
	case *maxTimeout <= 0:
		return fmt.Errorf("-max-timeout must be positive, got %v", *maxTimeout)
	}
	if *stateDir != "" {
		if *snapInterval <= 0 {
			return fmt.Errorf("-snapshot-interval must be positive, got %v", *snapInterval)
		}
		if *walSync <= 0 {
			return fmt.Errorf("-wal-sync must be positive, got %v", *walSync)
		}
		if err := probeStateDir(*stateDir); err != nil {
			return err
		}
	}

	// The service is the metrics producer; recording is always on so
	// /metrics and the manifest mean something.
	obs.Enable()
	if *pprofAddr != "" {
		got, err := obs.ServePprof(*pprofAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "blud: pprof on %s\n", got)
	}

	s, recovered, err := serve.NewDurable(serve.Config{
		Workers:           *workers,
		SolverParallelism: *solverPar,
		QueueDepth:        *queue,
		CacheEntries:      *cache,
		MaxSessions:       *sessions,
		WindowEpochs:      *window,
		DefaultTimeout:    *timeout,
		MaxTimeout:        *maxTimeout,
		ManifestPath:      *manifest,
		StateDir:          *stateDir,
		SnapshotInterval:  *snapInterval,
		WALSyncInterval:   *walSync,
		Tool:              "blud",
		Args:              args,
	})
	if err != nil {
		return err
	}
	if *stateDir != "" {
		fmt.Fprintf(os.Stderr,
			"blud: recovered %d snapshot sessions + %d WAL records from %s (%d corrupt dropped)\n",
			recovered.SnapshotRecords, recovered.WALReplayed, *stateDir, recovered.CorruptDropped)
	}
	bound, err := s.Listen(*addr)
	if err != nil {
		return err
	}
	// Scripted consumers (ci.sh serve-smoke, bluload wrappers) parse
	// this exact line to learn the bound port.
	fmt.Printf("blud: listening on %s\n", bound)

	sigch := make(chan os.Signal, 1)
	signal.Notify(sigch, syscall.SIGTERM, os.Interrupt)
	sig := <-sigch
	signal.Stop(sigch)
	fmt.Fprintf(os.Stderr, "blud: %s, draining\n", sig)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if *manifest != "" {
		fmt.Fprintf(os.Stderr, "blud: manifest written to %s\n", *manifest)
	}
	return nil
}

// probeStateDir proves the state directory is usable before the server
// exists: create it if missing and write-delete a probe file, so an
// unwritable path fails startup with a clear error instead of
// surfacing later as a failed snapshot mid-drain.
func probeStateDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("-state %s: %w", dir, err)
	}
	probe, err := os.CreateTemp(dir, ".blud-probe-*")
	if err != nil {
		return fmt.Errorf("-state %s is not writable: %w", dir, err)
	}
	name := probe.Name()
	probe.Close()
	return os.Remove(name)
}
