package gateway

import (
	"errors"
	"net"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/session"
	"repro/internal/wal"
)

// Config tunes the gateway.
type Config struct {
	// Shards is the number of session.Engine shards session IDs are
	// consistent-hashed across (default 1). Each shard has its own
	// bounded worker pool, so shards scale the serving layer across
	// cores. Spreading shards across processes would need a
	// snapshot+WAL session handoff, which does not exist yet.
	Shards int
	// Session configures every shard's engine (workers PER SHARD,
	// backpressure depth, health eviction, WAL, ...). The per-session
	// determinism law is indifferent to sharding: a session's events
	// are a pure function of its own chunk order on whichever shard
	// the hash picks.
	Session session.Config
	// EventQueue bounds each connection's outgoing event queue
	// (default 1024). Egress never blocks a session worker: when a
	// subscriber's connection falls this far behind, further events
	// are dropped and counted (Stats.EventsDropped) — the bounded-sink
	// event contract at the network edge.
	EventQueue int
	// MaxStreams caps live streams per connection (default 4096).
	MaxStreams int
}

// Gateway is the TCP ingest server: radio-framed chunk streams in,
// typed event streams out.
type Gateway struct {
	dev    *core.Device
	cfg    Config
	shards []*session.Engine

	subMu sync.RWMutex
	subs  map[uint64]*fanout // live session ID → event fan-out

	connMu sync.Mutex
	conns  map[*conn]struct{}
	closed bool

	lnMu sync.Mutex
	lns  map[net.Listener]struct{}

	wg sync.WaitGroup

	// Atomic load tallies behind Stats.
	connsTotal    atomic.Uint64
	connsOpen     atomic.Int64
	framesIn      atomic.Uint64
	samplesIn     atomic.Uint64
	eventsOut     atomic.Uint64
	eventsDropped atomic.Uint64
	protocolErrs  atomic.Uint64
}

// New starts a gateway serving streams of dev across consistent-hashed
// engine shards. Call Serve with one or more listeners, then Close.
func New(dev *core.Device, cfg Config) *Gateway {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.EventQueue <= 0 {
		cfg.EventQueue = 1024
	}
	if cfg.MaxStreams <= 0 {
		cfg.MaxStreams = 4096
	}
	g := &Gateway{
		dev:   dev,
		cfg:   cfg,
		subs:  make(map[uint64]*fanout),
		conns: make(map[*conn]struct{}),
		lns:   make(map[net.Listener]struct{}),
	}
	g.shards = make([]*session.Engine, cfg.Shards)
	for i := range g.shards {
		g.shards[i] = session.NewEngine(dev, cfg.Session)
	}
	return g
}

// splitmix64 whitens a session ID before the jump hash: IDs are often
// sequential, and the jump hash wants uniform keys.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// shardFor consistent-hashes a session ID to its engine shard
// (Lamping–Veach jump hash): when the shard count grows from K to K+1,
// only ~1/(K+1) of the IDs move, so a future snapshot+WAL session
// handoff could rebalance a live fleet without reshuffling everything.
func (g *Gateway) shardFor(id uint64) *session.Engine {
	return g.shards[jumpHash(splitmix64(id), len(g.shards))]
}

// jumpHash is Lamping & Veach's consistent hash into buckets.
func jumpHash(key uint64, buckets int) int {
	var b, j int64 = -1, 0
	for j < int64(buckets) {
		b = j
		key = key*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64((key>>33)+1)))
	}
	return int(b)
}

// fanout is a live session's event fan-out: the single sink the session
// was opened with, delivering to every subscribed connection. Emit runs
// on the session's worker, so it must never block — each target is a
// bounded queue that drops (counted) when full. On the final
// KindSessionClosed the fanout unregisters itself.
type fanout struct {
	g  *Gateway
	id uint64

	mu      sync.RWMutex
	targets []*conn // the owner (when it subscribed) and every TypeSub joiner
}

// Emit implements event.Sink on the session's worker. The event is
// encoded once, and every target queues the same payload: the writers
// only read it.
func (f *fanout) Emit(e event.Event) {
	f.mu.RLock()
	if len(f.targets) > 0 {
		payload := wal.EncodeEvent(make([]byte, 0, wal.EventSize), &e)
		for _, c := range f.targets {
			c.sendEvent(payload)
		}
	}
	f.mu.RUnlock()
	if e.Kind == event.KindSessionClosed {
		f.g.dropFanout(f.id, f)
	}
}

func (f *fanout) add(c *conn) {
	f.mu.Lock()
	f.targets = append(f.targets, c)
	f.mu.Unlock()
}

// removeConn detaches a tearing-down connection.
func (f *fanout) removeConn(c *conn) {
	f.mu.Lock()
	f.targets = slices.DeleteFunc(f.targets, func(t *conn) bool { return t == c })
	f.mu.Unlock()
}

// dropFanout unregisters a finished session's fanout (worker-called; it
// must still be the registered one — a re-admitted session may have
// re-registered).
func (g *Gateway) dropFanout(id uint64, f *fanout) {
	g.subMu.Lock()
	if g.subs[id] == f {
		delete(g.subs, id)
	}
	g.subMu.Unlock()
}

// lookup returns the live session's fanout, if any.
func (g *Gateway) lookup(id uint64) (*fanout, bool) {
	g.subMu.RLock()
	f, ok := g.subs[id]
	g.subMu.RUnlock()
	return f, ok
}

// Serve accepts connections on ln until the listener or the gateway is
// closed. It may be called on several listeners concurrently.
func (g *Gateway) Serve(ln net.Listener) error {
	g.lnMu.Lock()
	g.lns[ln] = struct{}{}
	g.lnMu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			g.connMu.Lock()
			closed := g.closed
			g.connMu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		c := newConn(g, nc)
		g.connMu.Lock()
		if g.closed {
			g.connMu.Unlock()
			nc.Close()
			return nil
		}
		g.conns[c] = struct{}{}
		g.connMu.Unlock()
		g.connsTotal.Add(1)
		g.connsOpen.Add(1)
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			c.serve()
			g.connMu.Lock()
			delete(g.conns, c)
			g.connMu.Unlock()
			g.connsOpen.Add(-1)
		}()
	}
}

// Close stops accepting, tears down every connection (open sessions are
// flushed and closed), and closes the engine shards. The configured WAL
// (if any) is the caller's to close afterwards, per the session
// contract.
func (g *Gateway) Close() error {
	g.connMu.Lock()
	if g.closed {
		g.connMu.Unlock()
		return errors.New("gateway: already closed")
	}
	g.closed = true
	open := make([]*conn, 0, len(g.conns))
	for c := range g.conns {
		open = append(open, c)
	}
	g.connMu.Unlock()
	g.lnMu.Lock()
	for ln := range g.lns {
		ln.Close()
	}
	g.lnMu.Unlock()
	for _, c := range open {
		c.nc.Close()
	}
	g.wg.Wait()
	var firstErr error
	for _, e := range g.shards {
		if err := e.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Stats is the gateway's load snapshot.
type Stats struct {
	ConnsOpen     int64
	ConnsTotal    uint64
	FramesIn      uint64 // chunk frames ingested
	SamplesIn     uint64 // sample pairs ingested
	EventsOut     uint64 // events delivered to subscriber queues
	EventsDropped uint64 // events dropped at full subscriber queues
	ProtocolErrs  uint64 // connections killed for protocol violations
	Shards        []session.EngineStats
}

// Stats returns the gateway's load snapshot, one engine tally per
// shard.
func (g *Gateway) Stats() Stats {
	s := Stats{
		ConnsOpen:     g.connsOpen.Load(),
		ConnsTotal:    g.connsTotal.Load(),
		FramesIn:      g.framesIn.Load(),
		SamplesIn:     g.samplesIn.Load(),
		EventsOut:     g.eventsOut.Load(),
		EventsDropped: g.eventsDropped.Load(),
		ProtocolErrs:  g.protocolErrs.Load(),
		Shards:        make([]session.EngineStats, len(g.shards)),
	}
	for i, e := range g.shards {
		s.Shards[i] = e.Stats()
	}
	return s
}

// SessionsOpen sums open sessions across shards.
func (g *Gateway) SessionsOpen() int {
	n := 0
	for _, e := range g.shards {
		n += e.Len()
	}
	return n
}
