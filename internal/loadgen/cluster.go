// Package loadgen drives synthetic EARDBD traffic at cluster scale:
// an in-process shard fleet with kill/restart fault injection, a
// generator that pushes tens of thousands of simulated node reporters
// through the real wire protocol (real clients, real batching, real
// spill journals), and a canonical federation snapshot for
// byte-identity checks. It is the load half of the federation test
// battery and the engine behind cmd/earload.
package loadgen

import (
	"fmt"
	"net"
	"sync"

	"goear/internal/accounting"
	"goear/internal/eard"
	"goear/internal/eardbd"
	"goear/internal/eardbd/fed"
	"goear/internal/eardbd/ring"
	"goear/internal/telemetry"
	"goear/internal/telemetry/trace"
	"goear/internal/wire"
)

// Cluster is an in-process shard fleet: one eardbd.Server per shard,
// addressed over net.Pipe, with node→shard placement on a consistent
// hash ring. Kill closes a shard's server, severing its connections,
// and refuses new dials; Restart brings up a fresh Server over the
// shard's surviving DB — the same state a daemon restart leaves on
// disk — so clients exercise the spill/replay/dedup paths exactly as
// against a real crashed daemon.
type Cluster struct {
	cfg   eardbd.Config
	ring  *ring.Ring
	names []string

	mu     sync.Mutex
	shards map[string]*clusterShard
}

type clusterShard struct {
	db   *eard.DB
	srv  *eardbd.Server
	down bool
	// savedPowers and savedAcct carry the last-known node-power view
	// and the job accounting store across a kill/restart, as a
	// persisted daemon snapshot would.
	savedPowers []wire.NodePower
	savedAcct   []accounting.Record
}

// NewCluster builds n shards named shard0..shard<n-1>, each with its
// own DB and server under the given config.
func NewCluster(n int, cfg eardbd.Config) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("loadgen: cluster needs at least one shard, got %d", n)
	}
	c := &Cluster{cfg: cfg, ring: ring.New(0), shards: map[string]*clusterShard{}}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("shard%d", i)
		if err := c.ring.Add(name); err != nil {
			return nil, err
		}
		db := eard.NewDB()
		c.shards[name] = &clusterShard{db: db, srv: eardbd.NewServer(db, cfg)}
		c.names = append(c.names, name)
	}
	return c, nil
}

// Names returns the shard names in creation order.
func (c *Cluster) Names() []string {
	out := make([]string, len(c.names))
	copy(out, c.names)
	return out
}

// Owner returns the shard a node's reports land on.
func (c *Cluster) Owner(node string) string {
	owner, _ := c.ring.Owner(node)
	return owner
}

// Server returns a shard's current server (nil for unknown names).
// After a Restart this is the new instance.
func (c *Cluster) Server(name string) *eardbd.Server {
	c.mu.Lock()
	defer c.mu.Unlock()
	if sh := c.shards[name]; sh != nil {
		return sh.srv
	}
	return nil
}

// DialShard opens a connection to one shard, or fails if the shard is
// down.
func (c *Cluster) DialShard(name string) (net.Conn, error) {
	c.mu.Lock()
	sh := c.shards[name]
	if sh == nil {
		c.mu.Unlock()
		return nil, fmt.Errorf("loadgen: unknown shard %s", name)
	}
	if sh.down {
		c.mu.Unlock()
		return nil, fmt.Errorf("loadgen: shard %s is down", name)
	}
	srv := sh.srv
	c.mu.Unlock()
	client, server := net.Pipe()
	go srv.ServeConn(server)
	return client, nil
}

// DialFor returns a dial function routing one node to its ring owner.
func (c *Cluster) DialFor(node string) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		owner, ok := c.ring.Owner(node)
		if !ok {
			return nil, fmt.Errorf("loadgen: empty ring")
		}
		return c.DialShard(owner)
	}
}

// Kill takes a shard down: new dials fail, live connections are
// severed and their handlers drained, and the node-power view is
// captured for the restart (the shard's DB survives, as a daemon's
// disk state would). In-flight batches may have been stored without
// their ack reaching the client; the client's retry is absorbed by
// the server's record-level dedup after Restart.
func (c *Cluster) Kill(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	sh := c.shards[name]
	if sh == nil {
		return fmt.Errorf("loadgen: unknown shard %s", name)
	}
	if sh.down {
		return fmt.Errorf("loadgen: shard %s already down", name)
	}
	// Handlers never take c.mu, so draining them under it cannot
	// deadlock; holding it keeps dials and Restart out until the
	// final state is captured.
	if err := sh.srv.Close(); err != nil {
		return err
	}
	sh.savedPowers = sh.srv.NodePowersByName()
	sh.savedAcct = sh.srv.Acct().Snapshot()
	sh.down = true
	return nil
}

// Restart brings a killed shard back with a fresh server over its
// surviving DB, restoring the captured node-power view. The new
// server's batch-ID window starts empty, so redelivered batches are
// deduplicated record-by-record against the DB.
func (c *Cluster) Restart(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	sh := c.shards[name]
	if sh == nil {
		return fmt.Errorf("loadgen: unknown shard %s", name)
	}
	if !sh.down {
		return fmt.Errorf("loadgen: shard %s is not down", name)
	}
	sh.srv = eardbd.NewServer(sh.db, c.cfg)
	sh.srv.SeedNodePowers(sh.savedPowers)
	sh.srv.SeedAcct(sh.savedAcct)
	sh.savedPowers = nil
	sh.savedAcct = nil
	sh.down = false
	return nil
}

// Root builds a federation root over the cluster's shards, sharing
// the shards' frame-payload cap so large record dumps survive the
// merge queries, and the shards' trace buffer so a root query and the
// shard queries it fans out render as one connected tree.
func (c *Cluster) Root() (*fed.Root, error) {
	cfg := fed.Config{MaxFramePayload: c.cfg.MaxFramePayload, Telemetry: c.cfg.Telemetry, Trace: c.cfg.Trace}
	for _, name := range c.names {
		name := name
		cfg.Shards = append(cfg.Shards, fed.Shard{
			Name: name,
			Dial: func() (net.Conn, error) { return c.DialShard(name) },
		})
	}
	return fed.NewRoot(cfg)
}

// Close shuts every live shard down.
func (c *Cluster) Close() error {
	var firstErr error
	for _, name := range c.names {
		c.mu.Lock()
		down := c.shards[name].down
		c.mu.Unlock()
		if down {
			continue
		}
		if err := c.Kill(name); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Endpoints routes nodes to external shard daemons (real listeners
// reached through an injected dialer) with the same ring placement an
// in-process Cluster uses. It backs earload's -addrs mode, where the
// shards are separately launched eardbd processes.
type Endpoints struct {
	ring  *ring.Ring
	addrs []string
	dial  func(addr string) (net.Conn, error)
	// MaxFramePayload, when positive, raises the root's frame cap to
	// match the external daemons' -max-frame setting.
	MaxFramePayload int
	// Telemetry, when set, instruments roots built by Root() — the
	// fan-out and snapshot-cache families an earload -metrics dump
	// includes.
	Telemetry *telemetry.Set
	// Trace, when set, records roots built by Root() into the shared
	// span buffer.
	Trace *trace.Buffer
}

// NewEndpoints builds a ring over the given shard addresses.
func NewEndpoints(addrs []string, dial func(addr string) (net.Conn, error)) (*Endpoints, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("loadgen: no shard endpoints")
	}
	if dial == nil {
		return nil, fmt.Errorf("loadgen: endpoints need a dialer")
	}
	rg := ring.New(0)
	for _, a := range addrs {
		if err := rg.Add(a); err != nil {
			return nil, err
		}
	}
	return &Endpoints{ring: rg, addrs: append([]string(nil), addrs...), dial: dial}, nil
}

// DialFor returns a dial function routing one node to its ring owner.
func (e *Endpoints) DialFor(node string) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		owner, ok := e.ring.Owner(node)
		if !ok {
			return nil, fmt.Errorf("loadgen: empty ring")
		}
		return e.dial(owner)
	}
}

// Root builds a federation root over the external shards, named by
// address.
func (e *Endpoints) Root() (*fed.Root, error) {
	cfg := fed.Config{MaxFramePayload: e.MaxFramePayload, Telemetry: e.Telemetry, Trace: e.Trace}
	for _, addr := range e.addrs {
		addr := addr
		cfg.Shards = append(cfg.Shards, fed.Shard{
			Name: addr,
			Dial: func() (net.Conn, error) { return e.dial(addr) },
		})
	}
	return fed.NewRoot(cfg)
}
