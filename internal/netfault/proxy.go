package netfault

import (
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Proxy is a fault-injecting TCP forwarder. Clients connect to Addr()
// instead of the real server; every connection is piped to the target
// through the currently configured fault schedule. All knobs are safe
// to flip while connections are live.
type Proxy struct {
	target string
	ln     net.Listener

	mu          sync.Mutex
	conns       map[*proxyConn]struct{}
	latency     time.Duration
	jitter      time.Duration
	bytesPerSec int64
	partitioned bool
	closed      bool
	rng         *rand.Rand

	wg sync.WaitGroup

	accepted atomic.Uint64
	refused  atomic.Uint64
	resets   atomic.Uint64
	forwards atomic.Uint64 // bytes forwarded, both directions
}

// Stats is a counter snapshot.
type Stats struct {
	Accepted uint64 // connections accepted and piped
	Refused  uint64 // connections refused while partitioned
	Resets   uint64 // connections killed by ResetAll
	Active   int    // connections currently piped
	Bytes    uint64 // payload bytes forwarded
}

// New starts a proxy on a loopback port forwarding to target
// (host:port). Faults are all off initially. Close releases the port
// and every live connection.
func New(target string) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{
		target: target,
		ln:     ln,
		conns:  make(map[*proxyConn]struct{}),
		rng:    rand.New(rand.NewSource(1)), // deterministic jitter
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr is the proxy's dialable address (host:port).
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// URL is the proxy's address as an http base URL.
func (p *Proxy) URL() string { return "http://" + p.Addr() }

// SetLatency delays every forwarded chunk by base plus a uniform draw
// in [0, jitter). Zero/zero turns delay off.
func (p *Proxy) SetLatency(base, jitter time.Duration) {
	p.mu.Lock()
	p.latency, p.jitter = base, jitter
	p.mu.Unlock()
}

// SetBandwidth throttles each connection direction to roughly
// bytesPerSec. Zero removes the cap.
func (p *Proxy) SetBandwidth(bytesPerSec int64) {
	p.mu.Lock()
	p.bytesPerSec = bytesPerSec
	p.mu.Unlock()
}

// Partition blackholes the link: live connections stop forwarding in
// both directions (they stay open — neither side sees a FIN or RST,
// only silence) and new connections are refused with a reset. Heal
// restores forwarding on the survivors.
func (p *Proxy) Partition() {
	p.mu.Lock()
	p.partitioned = true
	p.mu.Unlock()
}

// Heal ends a partition.
func (p *Proxy) Heal() {
	p.mu.Lock()
	p.partitioned = false
	p.mu.Unlock()
}

// ResetAll kills every live connection with an abortive close (RST
// where the platform allows it) — the mid-stream reset fault. New
// connections keep working; callers loop ResetAll for flap schedules.
func (p *Proxy) ResetAll() {
	for _, c := range p.snapshot() {
		p.resets.Add(1)
		c.close(true)
	}
}

// StatsSnapshot reports the proxy's counters.
func (p *Proxy) StatsSnapshot() Stats {
	p.mu.Lock()
	active := len(p.conns)
	p.mu.Unlock()
	return Stats{
		Accepted: p.accepted.Load(),
		Refused:  p.refused.Load(),
		Resets:   p.resets.Load(),
		Active:   active,
		Bytes:    p.forwards.Load(),
	}
}

// Close stops accepting, kills every connection and waits for the
// pipe goroutines to finish.
func (p *Proxy) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.ln.Close()
	for _, c := range p.snapshot() {
		c.close(false)
	}
	p.wg.Wait()
}

func (p *Proxy) snapshot() []*proxyConn {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*proxyConn, 0, len(p.conns))
	for c := range p.conns {
		out = append(out, c)
	}
	return out
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		p.mu.Lock()
		refuse := p.partitioned || p.closed
		p.mu.Unlock()
		if refuse {
			p.refused.Add(1)
			abortiveClose(conn)
			continue
		}
		p.wg.Add(1)
		go p.handle(conn)
	}
}

func (p *Proxy) handle(client net.Conn) {
	defer p.wg.Done()
	upstream, err := net.DialTimeout("tcp", p.target, 5*time.Second)
	if err != nil {
		client.Close()
		return
	}
	c := &proxyConn{client: client, upstream: upstream, done: make(chan struct{})}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		client.Close()
		upstream.Close()
		return
	}
	p.conns[c] = struct{}{}
	p.accepted.Add(1)
	p.mu.Unlock()

	// Either direction ending (error, EOF, reset) closes the pair,
	// which unblocks the other direction's Read.
	var pipes sync.WaitGroup
	pipes.Add(2)
	go func() { defer pipes.Done(); defer c.close(false); p.pipe(c, client, upstream) }()
	go func() { defer pipes.Done(); defer c.close(false); p.pipe(c, upstream, client) }()
	pipes.Wait()
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

// pipe copies src→dst chunk by chunk through the fault schedule: it
// stalls (without closing) while the link is partitioned, sleeps the
// configured latency+jitter per chunk, and throttles to the bandwidth
// cap. Any error on either side ends the pipe; handle then closes the
// whole connection.
func (p *Proxy) pipe(c *proxyConn, src, dst net.Conn) {
	buf := make([]byte, 8<<10)
	for {
		if !p.waitHealthy(c) {
			return
		}
		n, err := src.Read(buf)
		if n > 0 {
			// Data read just before a partition fires is held, not
			// delivered: blackhole semantics for in-flight bytes too.
			if !p.waitHealthy(c) {
				return
			}
			if !p.sleep(c, p.chunkDelay(n)) {
				return
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
			p.forwards.Add(uint64(n))
		}
		if err != nil {
			return
		}
	}
}

// waitHealthy blocks while the link is partitioned; false means the
// connection closed underneath.
func (p *Proxy) waitHealthy(c *proxyConn) bool {
	for {
		p.mu.Lock()
		part := p.partitioned
		p.mu.Unlock()
		if !part {
			select {
			case <-c.done:
				return false
			default:
				return true
			}
		}
		select {
		case <-c.done:
			return false
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func (p *Proxy) chunkDelay(n int) time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	d := p.latency
	if p.jitter > 0 {
		d += time.Duration(p.rng.Int63n(int64(p.jitter)))
	}
	if p.bytesPerSec > 0 {
		d += time.Duration(float64(n) / float64(p.bytesPerSec) * float64(time.Second))
	}
	return d
}

func (p *Proxy) sleep(c *proxyConn, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-c.done:
		return false
	case <-timer.C:
		return true
	}
}

// proxyConn is one piped connection pair.
type proxyConn struct {
	client   net.Conn
	upstream net.Conn
	once     sync.Once
	done     chan struct{}
}

// close tears the pair down; abortive sends RST instead of FIN where
// possible.
func (c *proxyConn) close(abortive bool) {
	c.once.Do(func() {
		close(c.done)
		if abortive {
			abortiveClose(c.client)
			abortiveClose(c.upstream)
			return
		}
		c.client.Close()
		c.upstream.Close()
	})
}

// abortiveClose closes conn with SO_LINGER 0 so the peer sees a
// connection reset, not an orderly shutdown.
func abortiveClose(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetLinger(0)
	}
	_ = conn.Close()
}
