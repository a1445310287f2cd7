// Package clustertest is the whole-cluster fault harness behind the
// cluster, trace-propagation and overload chaos suites: N in-process
// collectors built by collector.Build, on real sockets and real WALs,
// joined by a partitionable network.
package clustertest

import (
	"cmp"
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"qtag/internal/cluster"
	"qtag/internal/collector"
	"qtag/internal/faults"
	"qtag/internal/wal"
)

// This file is the whole-cluster fault harness: an in-process N-node
// cluster with real sockets, real WALs, and a partitionable network,
// built so the kill/partition sweeps (and make cluster-chaos) can
// murder nodes deterministically and then prove the invariant the
// cluster exists for: every beacon acked by any live node is counted
// exactly once cluster-wide after recovery.

// Partitioner is the harness network: a RoundTripper factory whose
// links can be cut per directed (from, to) pair. A cut link fails with
// faults.ErrConnDropped before any bytes move — a clean model of a
// network partition, visible to forwarders and probes alike.
type Partitioner struct {
	mu      sync.Mutex
	blocked map[string]bool // "from->hostport"
	addrs   map[string]string
	next    http.RoundTripper
}

// NewPartitioner builds a partitioner over next (http.DefaultTransport
// when nil).
func NewPartitioner(next http.RoundTripper) *Partitioner {
	if next == nil {
		next = http.DefaultTransport
	}
	return &Partitioner{blocked: make(map[string]bool), addrs: make(map[string]string), next: next}
}

func (p *Partitioner) register(nodeID, hostport string) {
	p.mu.Lock()
	p.addrs[nodeID] = hostport
	p.mu.Unlock()
}

// Cut severs the directed link from → to; Heal restores it. CutBoth /
// HealBoth do both directions.
func (p *Partitioner) Cut(from, to string) {
	p.mu.Lock()
	p.blocked[from+"->"+p.addrs[to]] = true
	p.mu.Unlock()
}

func (p *Partitioner) Heal(from, to string) {
	p.mu.Lock()
	delete(p.blocked, from+"->"+p.addrs[to])
	p.mu.Unlock()
}

func (p *Partitioner) CutBoth(a, b string)  { p.Cut(a, b); p.Cut(b, a) }
func (p *Partitioner) HealBoth(a, b string) { p.Heal(a, b); p.Heal(b, a) }

// Transport returns the RoundTripper a given node uses for all
// outbound cluster traffic (forwards, probes, federation).
func (p *Partitioner) Transport(nodeID string) http.RoundTripper {
	return partitionedTransport{p: p, from: nodeID}
}

type partitionedTransport struct {
	p    *Partitioner
	from string
	// next overrides the partitioner's shared base transport when set —
	// the composition point for per-node fault injection.
	next http.RoundTripper
}

func (t partitionedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.p.mu.Lock()
	cut := t.p.blocked[t.from+"->"+req.URL.Host]
	t.p.mu.Unlock()
	if cut {
		return nil, faults.ErrConnDropped
	}
	if t.next != nil {
		return t.next.RoundTrip(req)
	}
	return t.p.next.RoundTrip(req)
}

// HarnessConfig sizes a test cluster.
type HarnessConfig struct {
	// Nodes is the cluster size (default 3).
	Nodes int
	// Dir is the root scratch directory; each node gets Dir/<id>/wal and
	// Dir/<id>/handoff. Required.
	Dir string
	// FaultTransport, when set, wraps each node's outbound transport
	// BELOW the partitioner — the seam for faults.NewRoundTripper
	// profiles (injected timeouts, 5xx bursts).
	FaultTransport func(next http.RoundTripper) http.RoundTripper
	// Collector is every node's stack. The harness fills in what
	// differs per node — NodeID, WAL.Dir, and the cluster membership,
	// handoff dir and transport — and always runs the cluster ack
	// contract: DurableSync over a WAL with FsyncAlways. Zero
	// Collector.Cluster tunables pick fast-failover settings suited to
	// tests (probe 25ms, probe timeout 250ms, suspect 1, dead 2, forward
	// timeout 500ms, 1 retry, breaker 3 failures / 100ms). A shared
	// Trace.Store is the in-process stand-in for a central span
	// collector: spans survive a node's Kill, and a trace that crosses
	// nodes lands in one place (its SampleRate defaults to 1).
	Collector collector.Config
}

func (c *HarnessConfig) defaults() error {
	if c.Dir == "" {
		return fmt.Errorf("clustertest: harness needs a Dir")
	}
	if c.Nodes <= 0 {
		c.Nodes = 3
	}
	cl := cluster.Config{}
	if c.Collector.Cluster != nil {
		cl = *c.Collector.Cluster
	}
	cl.ProbeEvery = cmp.Or(cl.ProbeEvery, 25*time.Millisecond)
	cl.ProbeTimeout = cmp.Or(cl.ProbeTimeout, 250*time.Millisecond)
	cl.SuspectAfter = cmp.Or(cl.SuspectAfter, 1)
	cl.DeadAfter = cmp.Or(cl.DeadAfter, 2)
	cl.ForwardTimeout = cmp.Or(cl.ForwardTimeout, 500*time.Millisecond)
	cl.ForwardRetries = cmp.Or(cl.ForwardRetries, 1)
	cl.BreakerThreshold = cmp.Or(cl.BreakerThreshold, 3)
	cl.BreakerCooldown = cmp.Or(cl.BreakerCooldown, 100*time.Millisecond)
	c.Collector.Cluster = &cl
	if c.Collector.Trace.Store != nil && c.Collector.Trace.SampleRate == 0 {
		c.Collector.Trace.SampleRate = 1
	}
	c.Collector.WAL.Fsync = wal.FsyncAlways
	c.Collector.DurableSync = true
	return nil
}

// HarnessNode is one live (or killed) member of the harness cluster.
// The embedded collector is nil while the node is killed.
type HarnessNode struct {
	*collector.Collector
	ID  string
	URL string

	addr    string // stable across restarts
	walDir  string
	hintDir string
	httpSrv *http.Server
	alive   bool
}

// Alive reports whether the node is currently serving.
func (hn *HarnessNode) Alive() bool { return hn.alive }

// Harness is the in-process cluster.
type Harness struct {
	cfg   HarnessConfig
	Net   *Partitioner
	Nodes []*HarnessNode
	peers map[string]string // id -> URL, full membership
}

// StartHarness boots an N-node cluster. All listeners are bound before
// any node starts, so every node knows the full membership up front —
// the same static-membership model the qtag-server flags express.
func StartHarness(cfg HarnessConfig) (*Harness, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	h := &Harness{cfg: cfg, Net: NewPartitioner(nil), peers: make(map[string]string)}
	lns := make([]net.Listener, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		id := fmt.Sprintf("n%d", i)
		addr := ln.Addr().String()
		hn := &HarnessNode{
			ID:      id,
			URL:     "http://" + addr,
			addr:    addr,
			walDir:  filepath.Join(cfg.Dir, id, "wal"),
			hintDir: filepath.Join(cfg.Dir, id, "handoff"),
		}
		h.Nodes = append(h.Nodes, hn)
		h.peers[id] = hn.URL
		h.Net.register(id, addr)
	}
	for i, hn := range h.Nodes {
		if err := h.boot(hn, lns[i]); err != nil {
			for _, l := range lns[i+1:] {
				l.Close()
			}
			h.Close()
			return nil, err
		}
	}
	return h, nil
}

// boot builds one node's collector and serves it on an existing
// listener, which it closes if the build fails. It is the restart path too: state comes only from the
// node's WAL and handoff directories.
func (h *Harness) boot(hn *HarnessNode, ln net.Listener) error {
	cfg := h.cfg.Collector
	cl := *cfg.Cluster
	cl.Peers = make(map[string]string, len(h.peers)-1)
	for id, url := range h.peers {
		if id != hn.ID {
			cl.Peers[id] = url
		}
	}
	cl.HandoffDir = hn.hintDir
	cl.Transport = h.Net.Transport(hn.ID)
	if h.cfg.FaultTransport != nil {
		cl.Transport = h.Net.TransportWith(hn.ID, h.cfg.FaultTransport)
	}
	cfg.NodeID, cfg.Cluster, cfg.WAL.Dir = hn.ID, &cl, hn.walDir
	c, err := collector.Build(cfg)
	if err != nil {
		ln.Close()
		return fmt.Errorf("clustertest: boot %s: %w", hn.ID, err)
	}
	c.Start()
	hn.Collector = c
	hn.httpSrv = &http.Server{Handler: c.Handler(), ReadHeaderTimeout: 5 * time.Second}
	hn.alive = true
	go func() { _ = hn.httpSrv.Serve(ln) }() // ends when Kill/Close closes the listener
	return nil
}

// TransportWith composes the partitioner with a fault-injecting layer:
// partition checks run first (a cut link drops before faults fire), so
// a partitioned peer never also takes injected 5xxs.
func (p *Partitioner) TransportWith(nodeID string, wrap func(http.RoundTripper) http.RoundTripper) http.RoundTripper {
	return partitionedTransport{p: p, from: nodeID, next: wrap(p.next)}
}

// Kill abruptly stops node i: the listener closes mid-flight (clients
// see connection errors — those submissions were never acked), then the
// collector closes: probe loop and drains stop, and the WAL and hint
// files are released so Restart can reopen them. Nothing is flushed
// beyond what FsyncAlways already made durable — exactly a process kill
// from the disk's point of view.
func (h *Harness) Kill(i int) error {
	hn := h.Nodes[i]
	if !hn.alive {
		return nil
	}
	hn.alive = false
	// Close (not Shutdown): in-flight requests are severed, not drained.
	hn.httpSrv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := hn.Collector.Close(ctx)
	hn.Collector = nil
	return err
}

// Restart brings a killed node back on its original address, rebuilding
// all state from its WAL and handoff directories.
func (h *Harness) Restart(i int) error {
	hn := h.Nodes[i]
	if hn.alive {
		return nil
	}
	ln, err := net.Listen("tcp", hn.addr)
	if err != nil {
		return fmt.Errorf("clustertest: rebind %s on %s: %w", hn.ID, hn.addr, err)
	}
	return h.boot(hn, ln)
}

// LiveURLs returns the base URLs of currently alive nodes, in node
// order.
func (h *Harness) LiveURLs() []string {
	var out []string
	for _, hn := range h.Nodes {
		if hn.alive {
			out = append(out, hn.URL)
		}
	}
	return out
}

// TotalPendingHints sums the hint backlog across live nodes.
func (h *Harness) TotalPendingHints() int64 {
	var n int64
	for _, hn := range h.Nodes {
		if hn.alive && hn.Node != nil {
			n += hn.Node.Stats().HintBacklog
		}
	}
	return n
}

// WaitDrained polls until no live node has pending hints (or the
// context expires).
func (h *Harness) WaitDrained(ctx context.Context) error {
	for {
		if h.TotalPendingHints() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("clustertest: hints not drained: %d pending: %w", h.TotalPendingHints(), ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// ClusterEvents returns the union of every live node's stored events —
// the "recovered cluster-wide" side of the invariant. The returned map
// counts occurrences per idempotency key so tests can assert both
// coverage (>=1) and exactly-once (==1).
func (h *Harness) ClusterEvents() map[string]int {
	out := make(map[string]int)
	for _, hn := range h.Nodes {
		if !hn.alive {
			continue
		}
		for _, e := range hn.Store.Events() {
			out[e.Key()]++
		}
	}
	return out
}

// Close tears the whole cluster down.
func (h *Harness) Close() error {
	var first error
	for i := range h.Nodes {
		if err := h.Kill(i); err != nil && first == nil {
			first = err
		}
	}
	return first
}
