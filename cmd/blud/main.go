// Command blud serves the BLU controller over HTTP/JSON, as one daemon
// or as the multi-cell shard fleet (DESIGN.md §16).
//
// A daemon (and every fleet shard) serves topology inference
// (POST /v1/infer), streaming access-outcome ingestion
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
// Modes (-mode):
//
//	single  (default) one daemon on -addr.
//	all     all-in-one fleet: -shards shards plus one router in this
//	        process, shards on free loopback ports, peers pre-wired.
//	        The router binds -addr.
//	shard   one fleet shard on -addr. Requires -name (one of the
//	        canonical shard-0..shard-(K-1) names for -shards K) and, for
//	        cross-shard exchange, a -peer name=url flag per peer.
//	router  one router on -addr over externally started shards, given as
//	        -shard name=url flags. It forwards
//	        /v1/{infer,observe,schedule,joint} by cell id, serves the
//	        merged global interference map at GET /v1/fleet/map, and its
//	        /metrics aggregates the shards' snapshots.
//
// The fleet's cell directory is derived from (-cells, -seed) alone via
// the shared multi-cell scenario generator, so shards, routers and
// bluload -cells agree on cell membership without any shared files.
//
// Flags:
//
//	-mode m          single | all | shard | router (default single)
//	-addr a          listen address (default 127.0.0.1:8245; use :0 to
//	                 pick a free port — the bound address is printed as
//	                 "blud: listening on ADDR", "blud: router listening
//	                 on ADDR" or "blud: shard NAME listening on ADDR
//	                 (cells: …)")
//	-workers n       compute pool size, per shard (0 = all cores)
//	-queue n         work-queue depth, per shard; beyond it requests get
//	                 429 + Retry-After (default 64)
//	-state dir       durable session state under this directory: every
//	                 accepted observe batch is WAL-logged before it
//	                 folds and the live sessions are snapshotted
//	                 periodically, so a restart (even kill -9) restores
//	                 the streaming state digest-identically and session
//	                 infers stay warm (DESIGN.md §15). In all mode each
//	                 shard persists under dir/<name>. Empty = memory-
//	                 only.
//	-snapshot-interval d  periodic snapshot cadence (default 30s;
//	                 requires -state)
//	-wal-sync d      WAL group-commit fsync interval; a crash loses at
//	                 most this window of acknowledged observes
//	                 (default 25ms; requires -state)
//	-cells n         fleet cell count (default 3)
//	-seed n          fleet directory seed (default 1; must match across
//	                 components)
//	-shards k        fleet shard count (default 3)
//	-exchange d      blueprint-exchange interval (default 2s; 0 disables)
//	-name s          this shard's ring identity (shard mode)
//	-peer n=u        peer shard base URL, repeatable (shard mode)
//	-shard n=u       shard base URL, repeatable (router mode)
//	-manifest file   write a JSON run manifest here after the drain
//	-pprof addr      serve net/http/pprof on addr
//
// Cache, session, window and deadline bounds are constants of
// internal/serve. Flag ranges are validated up front — a zero queue or
// an unwritable -state directory is a clear startup error, not a
// latent panic.
//
// SIGTERM or SIGINT triggers a graceful drain: /healthz flips to 503
// "draining", the listener closes, every accepted request finishes, a
// final state snapshot is serialized (with -state), and then the
// manifest is written.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"blu/internal/fleet"
	"blu/internal/obs"
	"blu/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "blud:", err)
		os.Exit(1)
	}
}

// fleetFlags are the settings only the fleet modes read.
type fleetFlags struct {
	cells, shards    int
	seed             uint64
	name             string
	exchange         time.Duration
	peers, shardURLs map[string]string
}

func run(args []string) error {
	fs := flag.NewFlagSet("blud", flag.ContinueOnError)
	mode := fs.String("mode", "single", "single | all | shard | router")
	addr := fs.String("addr", "127.0.0.1:8245", "listen address (use :0 for a free port)")
	workers := fs.Int("workers", 0, "compute pool size, per shard (0 = all cores)")
	queue := fs.Int("queue", 64, "work-queue depth, per shard (full queue answers 429)")
	stateDir := fs.String("state", "", "durable session state directory (empty = memory-only)")
	snapInterval := fs.Duration("snapshot-interval", 30*time.Second, "periodic snapshot cadence (requires -state)")
	walSync := fs.Duration("wal-sync", 25*time.Millisecond, "WAL group-commit fsync interval (requires -state)")
	ff := fleetFlags{peers: map[string]string{}, shardURLs: map[string]string{}}
	fs.IntVar(&ff.cells, "cells", 3, "fleet cell count")
	fs.Uint64Var(&ff.seed, "seed", 1, "fleet directory seed (must match across components)")
	fs.IntVar(&ff.shards, "shards", 3, "fleet shard count")
	fs.DurationVar(&ff.exchange, "exchange", 2*time.Second, "blueprint-exchange interval (0 disables)")
	fs.StringVar(&ff.name, "name", "", "this shard's ring identity (shard mode)")
	fs.Func("peer", "peer shard as name=url, repeatable (shard mode)", kvInto(ff.peers))
	fs.Func("shard", "shard as name=url, repeatable (router mode)", kvInto(ff.shardURLs))
	rf := obs.AddRunFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}

	// Range-check every bound before anything starts: a bad flag is a
	// one-line startup error naming the flag, never a latent panic.
	switch {
	case *mode != "single" && *mode != "all" && *mode != "shard" && *mode != "router":
		return fmt.Errorf("-mode must be single, all, shard or router, got %q", *mode)
	case *workers < 0:
		return fmt.Errorf("-workers must be >= 0 (0 = all cores), got %d", *workers)
	case *queue < 1:
		return fmt.Errorf("-queue must be >= 1, got %d", *queue)
	case ff.cells < 1:
		return fmt.Errorf("-cells must be >= 1, got %d", ff.cells)
	case ff.shards < 1:
		return fmt.Errorf("-shards must be >= 1, got %d", ff.shards)
	case ff.exchange < 0:
		return fmt.Errorf("-exchange must be >= 0, got %v", ff.exchange)
	case *mode == "shard" && ff.name == "":
		return fmt.Errorf("-mode shard requires -name")
	case *mode == "router" && len(ff.shardURLs) == 0:
		return fmt.Errorf("-mode router requires at least one -shard name=url")
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
	if _, err := rf.Start(args); err != nil {
		return err
	}
	cfg := serve.Config{
		Workers:          *workers,
		QueueDepth:       *queue,
		StateDir:         *stateDir,
		SnapshotInterval: *snapInterval,
		WALSyncInterval:  *walSync,
	}
	var err error
	if *mode == "single" {
		err = runSingle(*addr, cfg)
	} else {
		err = runFleet(*mode, *addr, cfg, ff)
	}
	// The manifest snapshots the registry after everything has drained.
	if ferr := rf.Finish(); err == nil {
		err = ferr
	}
	return err
}

func runSingle(addr string, cfg serve.Config) error {
	s, recovered, err := serve.NewDurable(cfg)
	if err != nil {
		return err
	}
	logRecovered("", cfg.StateDir, recovered)
	bound, err := s.Listen(addr)
	if err != nil {
		return err
	}
	// Scripted consumers (ci.sh, bluload wrappers) parse this exact
	// line, and the fleet ones below, to learn the bound port.
	fmt.Printf("blud: listening on %s\n", bound)
	return drainOnSignal(s.Drain)
}

func runFleet(mode, addr string, cfg serve.Config, ff fleetFlags) error {
	dir, err := fleet.DefaultDirectory(ff.cells, ff.seed)
	if err != nil {
		return err
	}
	switch mode {
	case "all":
		l, err := fleet.StartLocal(fleet.LocalConfig{
			Shards:           ff.shards,
			Directory:        dir,
			StateDir:         cfg.StateDir,
			Serve:            cfg,
			ExchangeInterval: ff.exchange,
			RouterAddr:       addr,
		})
		if err != nil {
			return err
		}
		for _, sh := range l.Shards {
			printShard(sh, strings.TrimPrefix(l.ShardAddrs[sh.Name()], "http://"))
		}
		fmt.Printf("blud: router listening on %s\n", strings.TrimPrefix(l.RouterAddr, "http://"))
		return drainOnSignal(l.Drain)
	case "shard":
		names := make([]string, ff.shards)
		for i := range names {
			names[i] = fleet.ShardName(i)
		}
		sh, recovered, err := fleet.NewShard(fleet.ShardConfig{
			Name:             ff.name,
			ShardNames:       names,
			Directory:        dir,
			Peers:            ff.peers,
			Serve:            cfg,
			ExchangeInterval: ff.exchange,
		})
		if err != nil {
			return err
		}
		logRecovered("shard "+ff.name+" ", cfg.StateDir, recovered)
		bound, err := sh.Listen(addr)
		if err != nil {
			return err
		}
		printShard(sh, bound)
		return drainOnSignal(sh.Drain)
	default: // router
		rt, err := fleet.NewRouter(fleet.RouterConfig{Shards: ff.shardURLs, Directory: dir})
		if err != nil {
			return err
		}
		bound, err := rt.Listen(addr)
		if err != nil {
			return err
		}
		fmt.Printf("blud: router listening on %s\n", bound)
		return drainOnSignal(rt.Close)
	}
}

func printShard(sh *fleet.Shard, addr string) {
	fmt.Printf("blud: shard %s listening on %s (cells: %s)\n",
		sh.Name(), addr, strings.Join(sh.OwnedCells(), " "))
}

// logRecovered reports what a durable restart restored; who is empty
// or "shard NAME ".
func logRecovered(who, stateDir string, recovered *serve.RecoverStats) {
	if stateDir == "" {
		return
	}
	fmt.Fprintf(os.Stderr,
		"blud: %srecovered %d snapshot sessions + %d WAL records from %s (%d corrupt dropped)\n",
		who, recovered.SnapshotRecords, recovered.WALReplayed, stateDir, recovered.CorruptDropped)
}

// drainOnSignal blocks until SIGTERM or SIGINT, then gives drain 30 s.
func drainOnSignal(drain func(context.Context) error) error {
	sigch := make(chan os.Signal, 1)
	signal.Notify(sigch, syscall.SIGTERM, os.Interrupt)
	sig := <-sigch
	signal.Stop(sigch)
	fmt.Fprintf(os.Stderr, "blud: %s, draining\n", sig)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := drain(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	return nil
}

// kvInto parses a repeatable "name=url" flag into dst.
func kvInto(dst map[string]string) func(string) error {
	return func(v string) error {
		k, u, ok := strings.Cut(v, "=")
		if !ok || k == "" || u == "" {
			return fmt.Errorf("want name=url, got %q", v)
		}
		dst[k] = u
		return nil
	}
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
