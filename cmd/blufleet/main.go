// Command blufleet runs the multi-cell controller tier (DESIGN.md §16):
// consistent-hash routed blud-style shards with periodic cross-cell
// blueprint exchange, behind a thin router that forwards
// /v1/{infer,observe,schedule,joint} by cell id and serves the merged
// global interference map at GET /v1/fleet/map.
//
// The fleet's cell directory is derived from (-cells, -seed) alone via
// the shared multi-cell scenario generator, so every component —
// shards, routers, and bluload -cells — agrees on cell membership
// without any shared files.
//
// Usage:
//
//	blufleet [flags]
//
// Modes (-mode):
//
//	all     (default) all-in-one: -shards shards plus one router in this
//	        process, shards on free loopback ports, peers pre-wired.
//	        The router binds -addr.
//	shard   one shard process. Requires -name (must be one of the
//	        canonical shard-0..shard-(K-1) names for -shards K) and, for
//	        cross-shard exchange, a -peer name=url flag per peer.
//	router  one router process over externally started shards, given as
//	        -shard name=url flags. /metrics aggregates the shards'
//	        snapshots into fleet-wide totals.
//
// Flags:
//
//	-mode m      all | shard | router (default all)
//	-cells n     fleet cell count (default 3)
//	-seed n      directory seed (default 1; must match across components)
//	-shards k    fleet shard count (default 3)
//	-addr a      listen address (router in all/router modes, the shard in
//	             shard mode; ":0" picks a free port — bound addresses are
//	             printed as "blufleet: ROLE listening on ADDR")
//	-name s      this shard's ring identity (shard mode)
//	-peer n=u    peer shard base URL, repeatable (shard mode)
//	-shard n=u   shard base URL, repeatable (router mode)
//	-state dir   durable session state: in all mode each shard persists
//	             under dir/<name>; in shard mode the directory is used
//	             as-is (kill -9 restarts recover digest-identically)
//	-exchange d  blueprint-exchange interval (default 2s; 0 disables)
//	-workers n   per-shard compute pool size (0 = all cores)
//	-queue n     per-shard work-queue depth (default 64)
//	-snapshot-interval d  periodic snapshot cadence (default 30s;
//	             meaningful with -state)
//	-wal-sync d  WAL group-commit fsync interval (default 25ms;
//	             meaningful with -state)
//
// Scripted consumers (ci.sh fleet-smoke) parse the exact line
// "blufleet: router listening on ADDR" (and the shard equivalent) to
// learn bound ports. SIGTERM/SIGINT drains gracefully.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"blu/internal/fleet"
	"blu/internal/obs"
	"blu/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "blufleet:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("blufleet", flag.ContinueOnError)
	mode := fs.String("mode", "all", "all | shard | router")
	cells := fs.Int("cells", 3, "fleet cell count")
	seed := fs.Uint64("seed", 1, "directory seed (must match across components)")
	shards := fs.Int("shards", 3, "fleet shard count")
	addr := fs.String("addr", "127.0.0.1:0", "listen address")
	name := fs.String("name", "", "this shard's ring identity (shard mode)")
	stateDir := fs.String("state", "", "durable session state directory")
	exchange := fs.Duration("exchange", 2*time.Second, "blueprint-exchange interval (0 disables)")
	workers := fs.Int("workers", 0, "per-shard compute pool size (0 = all cores)")
	queue := fs.Int("queue", 64, "per-shard work-queue depth")
	snapInterval := fs.Duration("snapshot-interval", 30*time.Second, "periodic snapshot cadence (requires -state)")
	walSync := fs.Duration("wal-sync", 25*time.Millisecond, "WAL group-commit fsync interval (requires -state)")
	peers := map[string]string{}
	fs.Func("peer", "peer shard as name=url, repeatable (shard mode)", kvInto(peers))
	shardURLs := map[string]string{}
	fs.Func("shard", "shard as name=url, repeatable (router mode)", kvInto(shardURLs))
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	switch {
	case *cells < 1:
		return fmt.Errorf("-cells must be >= 1, got %d", *cells)
	case *shards < 1:
		return fmt.Errorf("-shards must be >= 1, got %d", *shards)
	case *exchange < 0:
		return fmt.Errorf("-exchange must be >= 0, got %v", *exchange)
	case *queue < 1:
		return fmt.Errorf("-queue must be >= 1, got %d", *queue)
	case *snapInterval <= 0:
		return fmt.Errorf("-snapshot-interval must be positive, got %v", *snapInterval)
	case *walSync <= 0:
		return fmt.Errorf("-wal-sync must be positive, got %v", *walSync)
	}

	dir, err := fleet.DefaultDirectory(*cells, *seed)
	if err != nil {
		return err
	}
	serveCfg := serve.Config{
		Workers:          *workers,
		QueueDepth:       *queue,
		SnapshotInterval: *snapInterval,
		WALSyncInterval:  *walSync,
		Tool:             "blufleet",
		Args:             args,
	}

	// The fleet is the metrics producer — routed/exchange counters only
	// mean something when recording is on.
	obs.Enable()

	switch *mode {
	case "all":
		return runAll(dir, *shards, *addr, *stateDir, *exchange, serveCfg)
	case "shard":
		return runShard(dir, *name, *shards, *addr, *stateDir, *exchange, peers, serveCfg)
	case "router":
		return runRouter(dir, *addr, shardURLs)
	default:
		return fmt.Errorf("-mode must be all, shard, or router, got %q", *mode)
	}
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

func runAll(dir fleet.Directory, shards int, addr, stateDir string, exchange time.Duration, serveCfg serve.Config) error {
	l, err := fleet.StartLocal(fleet.LocalConfig{
		Shards:           shards,
		Directory:        dir,
		StateDir:         stateDir,
		Serve:            serveCfg,
		ExchangeInterval: exchange,
		RouterAddr:       addr,
	})
	if err != nil {
		return err
	}
	for _, sh := range l.Shards {
		fmt.Printf("blufleet: shard %s listening on %s (cells: %s)\n",
			sh.Name(), strings.TrimPrefix(l.ShardAddrs[sh.Name()], "http://"),
			strings.Join(sh.OwnedCells(), " "))
	}
	fmt.Printf("blufleet: router listening on %s\n", strings.TrimPrefix(l.RouterAddr, "http://"))
	waitSignal()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return l.Drain(ctx)
}

func runShard(dir fleet.Directory, name string, shards int, addr, stateDir string, exchange time.Duration, peers map[string]string, serveCfg serve.Config) error {
	if name == "" {
		return fmt.Errorf("-mode shard requires -name")
	}
	names := make([]string, shards)
	for i := range names {
		names[i] = fleet.ShardName(i)
	}
	if stateDir != "" {
		if err := os.MkdirAll(filepath.Clean(stateDir), 0o755); err != nil {
			return fmt.Errorf("-state %s: %w", stateDir, err)
		}
		serveCfg.StateDir = stateDir
	}
	serveCfg.Tool = "blufleet-shard"
	sh, recovered, err := fleet.NewShard(fleet.ShardConfig{
		Name:             name,
		ShardNames:       names,
		Directory:        dir,
		Peers:            peers,
		Serve:            serveCfg,
		ExchangeInterval: exchange,
	})
	if err != nil {
		return err
	}
	if stateDir != "" && recovered != nil {
		fmt.Fprintf(os.Stderr,
			"blufleet: shard %s recovered %d snapshot sessions + %d WAL records from %s\n",
			name, recovered.SnapshotRecords, recovered.WALReplayed, stateDir)
	}
	bound, err := sh.Listen(addr)
	if err != nil {
		return err
	}
	fmt.Printf("blufleet: shard %s listening on %s (cells: %s)\n",
		name, bound, strings.Join(sh.OwnedCells(), " "))
	waitSignal()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return sh.Drain(ctx)
}

func runRouter(dir fleet.Directory, addr string, shardURLs map[string]string) error {
	if len(shardURLs) == 0 {
		return fmt.Errorf("-mode router requires at least one -shard name=url")
	}
	rt, err := fleet.NewRouter(fleet.RouterConfig{
		Shards:    shardURLs,
		Directory: dir,
	})
	if err != nil {
		return err
	}
	bound, err := rt.Listen(addr)
	if err != nil {
		return err
	}
	fmt.Printf("blufleet: router listening on %s\n", bound)
	waitSignal()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return rt.Close(ctx)
}

func waitSignal() {
	sigch := make(chan os.Signal, 1)
	signal.Notify(sigch, syscall.SIGTERM, os.Interrupt)
	sig := <-sigch
	signal.Stop(sigch)
	fmt.Fprintf(os.Stderr, "blufleet: %s, draining\n", sig)
}
