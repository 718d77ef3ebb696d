// Local fleet assembly: the all-in-one launcher used by `blud -mode
// all` and the package tests — K shards plus one router in a single
// process, every component on its own loopback listener, peers wired
// both ways.
package fleet

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"blu/internal/rng"
	"blu/internal/serve"
	"blu/internal/topology"
)

// LocalConfig parameterizes an all-in-one fleet.
type LocalConfig struct {
	// Shards is the shard count (default 3).
	Shards int
	// Directory is the fleet-wide cell listing (required).
	Directory Directory
	// StateDir, when set, gives each shard a durable state directory
	// <StateDir>/<shard-name>.
	StateDir string
	// Serve is the per-shard serving config (StateDir is overridden per
	// shard).
	Serve serve.Config
	// ExchangeInterval starts each shard's periodic exchange loop;
	// zero leaves exchange manual.
	ExchangeInterval time.Duration
	// RouterAddr, when set, pins the router's listen address — a
	// launcher's public entry port. Otherwise the router, like every
	// shard, listens on localAddr.
	RouterAddr string
}

// localAddr makes each local-fleet component pick its own free
// loopback port.
const localAddr = "127.0.0.1:0"

// Local is a running all-in-one fleet.
type Local struct {
	Router     *Router
	RouterAddr string
	Shards     []*Shard
	ShardAddrs map[string]string
}

// ShardName renders the canonical shard identity.
func ShardName(i int) string { return fmt.Sprintf("shard-%d", i) }

// StartLocal builds, wires, and starts a local fleet: K durable (or
// memory-only) shards listening on loopback, peer URLs exchanged, and
// a router over all of them. Callers own Drain.
func StartLocal(cfg LocalConfig) (*Local, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 3
	}
	if err := cfg.Directory.Validate(); err != nil {
		return nil, err
	}
	names := make([]string, cfg.Shards)
	for i := range names {
		names[i] = ShardName(i)
	}

	l := &Local{ShardAddrs: map[string]string{}}
	fail := func(err error) (*Local, error) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		for _, sh := range l.Shards {
			_ = sh.Drain(ctx)
		}
		return nil, err
	}
	for i := 0; i < cfg.Shards; i++ {
		scfg := ShardConfig{
			Name:             names[i],
			ShardNames:       names,
			Directory:        cfg.Directory,
			Serve:            cfg.Serve,
			ExchangeInterval: cfg.ExchangeInterval,
		}
		if cfg.StateDir != "" {
			scfg.Serve.StateDir = filepath.Join(cfg.StateDir, names[i])
		}
		sh, _, err := NewShard(scfg)
		if err != nil {
			return fail(err)
		}
		addr, err := sh.Listen(localAddr)
		if err != nil {
			sh.srv.Drain(context.Background())
			return fail(err)
		}
		l.Shards = append(l.Shards, sh)
		l.ShardAddrs[names[i]] = "http://" + addr
	}
	// Peer wiring: every shard learns every other shard's URL.
	for _, sh := range l.Shards {
		for n, u := range l.ShardAddrs {
			if n != sh.Name() {
				sh.SetPeer(n, u)
			}
		}
	}
	rt, err := NewRouter(RouterConfig{
		Shards:       l.ShardAddrs,
		Directory:    cfg.Directory,
		LocalMetrics: true, // one process, one obs registry
	})
	if err != nil {
		return fail(err)
	}
	raddr := cfg.RouterAddr
	if raddr == "" {
		raddr = localAddr
	}
	addr, err := rt.Listen(raddr)
	if err != nil {
		return fail(err)
	}
	l.Router = rt
	l.RouterAddr = "http://" + addr
	return l, nil
}

// Drain stops the router and every shard gracefully.
func (l *Local) Drain(ctx context.Context) error {
	var first error
	if l.Router != nil {
		if err := l.Router.Close(ctx); err != nil && first == nil {
			first = err
		}
	}
	for _, sh := range l.Shards {
		if err := sh.Drain(ctx); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// DefaultDirectory derives the canonical directory for a cells-count +
// seed pair: every fleet component (shards, router, load generator)
// calling this with the same arguments agrees on cell membership
// without any shared files.
func DefaultDirectory(cells int, seed uint64) (Directory, error) {
	ms, err := topology.NewMultiScenario(cells, fleetRNG(seed))
	if err != nil {
		return Directory{}, err
	}
	return NewDirectory(ms), nil
}

// fleetRNG is the canonical random stream the fleet's shared geometry
// derives from — one label, so every component splits identically.
func fleetRNG(seed uint64) *rng.Source { return rng.New(seed).Split("fleet-directory") }
