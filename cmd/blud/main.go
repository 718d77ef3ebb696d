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
//	-queue n         work-queue depth; beyond it requests get 429 +
//	                 Retry-After (default 64)
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
// Cache, session, window and deadline bounds are constants of
// internal/serve. Flag ranges are validated up front — a zero queue or
// an unwritable -state directory is a clear startup error, not a
// latent panic.
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
	queue := fs.Int("queue", 64, "work-queue depth (full queue answers 429)")
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
	// one-line startup error naming the flag, never a latent panic.
	switch {
	case *workers < 0:
		return fmt.Errorf("-workers must be >= 0 (0 = all cores), got %d", *workers)
	case *queue < 1:
		return fmt.Errorf("-queue must be >= 1, got %d", *queue)
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
		Workers:          *workers,
		QueueDepth:       *queue,
		ManifestPath:     *manifest,
		StateDir:         *stateDir,
		SnapshotInterval: *snapInterval,
		WALSyncInterval:  *walSync,
		Tool:             "blud",
		Args:             args,
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
