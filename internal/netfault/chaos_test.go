// Package netfault is the network-chaos battery, internal/iofault's
// sibling for the network, and holds tests only. It runs the real leader
// server, the real follower and real subscription clients over real
// sockets, and injects faults where they read a stream: the body of each
// HTTP response passes through a link that can partition, reset, delay
// and throttle it. After every fault schedule heals, replicas and
// subscribers must reconverge to state byte-identical to the leader's,
// with the resilience counters (stalls, reconnects) showing the
// machinery fired. Faults are placed in body bytes, which the leader's
// log fixes, so a schedule lands where it is written on every run.
package netfault

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/provstore"
	"hyperprov/internal/server"
	"hyperprov/internal/subscribe"
	"hyperprov/internal/wal"
	"hyperprov/internal/workload"
)

var (
	errRefused = errors.New("netfault: connection refused: the link is partitioned")
	errCut     = errors.New("netfault: connection reset by the link")
)

// link is the battery's network. Every stream a follower or subscriber
// reads is opened through it, and the response body it returns is one
// connection: a partition silences every body and refuses new opens,
// a reset ends a body, and each read is delayed by latency, seeded
// jitter and bytes over the rate. Every knob is safe to flip while
// connections are live.
type link struct {
	mu          sync.Mutex
	healed      chan struct{} // closed unless partitioned
	bodies      map[*linkBody]struct{}
	latency     time.Duration
	jitter      time.Duration
	bytesPerSec int64
	resetAt     []int64 // byte limits of the next opens, in order
	holds       int     // next opens held silent until their context ends
	rng         *rand.Rand
	st          linkStats
}

// linkStats is a counter snapshot.
type linkStats struct {
	Opened     int     // connections opened through the link
	Refused    int     // opens refused while partitioned
	Held       int     // held opens that ended with their context
	Resets     int     // connections ended by ResetAll or ResetAt
	ResetBytes []int64 // body bytes each reset connection had delivered
	Active     int     // connections open now
	Bytes      int64   // body bytes delivered
}

func newLink() *link {
	healed := make(chan struct{})
	close(healed)
	return &link{healed: healed, bodies: map[*linkBody]struct{}{}, rng: rand.New(rand.NewSource(1))}
}

// SetLatency delays every read by base plus a uniform draw in
// [0, jitter).
func (l *link) SetLatency(base, jitter time.Duration) {
	l.mu.Lock()
	l.latency, l.jitter = base, jitter
	l.mu.Unlock()
}

// SetBandwidth delays every read by its bytes over bytesPerSec; zero
// removes the cap.
func (l *link) SetBandwidth(bytesPerSec int64) {
	l.mu.Lock()
	l.bytesPerSec = bytesPerSec
	l.mu.Unlock()
}

// Partition silences the link: reads block until Heal or the body is
// closed, bytes already read included, and new opens are refused.
func (l *link) Partition() {
	l.mu.Lock()
	if !l.partitioned() {
		l.healed = make(chan struct{})
	}
	l.mu.Unlock()
}

// Heal ends a partition.
func (l *link) Heal() {
	l.mu.Lock()
	if l.partitioned() {
		close(l.healed)
	}
	l.mu.Unlock()
}

func (l *link) partitioned() bool {
	select {
	case <-l.healed:
		return false
	default:
		return true
	}
}

// HoldOpen makes the next open, partitioned or not, connect and then
// answer nothing until its context ends.
func (l *link) HoldOpen() {
	l.mu.Lock()
	l.holds++
	l.mu.Unlock()
}

// ResetAt makes each of the next opens end its connection after
// exactly the given number of body bytes, one limit an open, in order.
func (l *link) ResetAt(bytes ...int64) {
	l.mu.Lock()
	l.resetAt = append(l.resetAt, bytes...)
	l.mu.Unlock()
}

// ResetAll ends every open connection.
func (l *link) ResetAll() {
	l.mu.Lock()
	open := make([]*linkBody, 0, len(l.bodies))
	for b := range l.bodies {
		open = append(open, b)
	}
	l.mu.Unlock()
	for _, b := range open {
		l.reset(b)
	}
}

// Stats reports the link's counters.
func (l *link) Stats() linkStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.st
	st.ResetBytes = append([]int64(nil), l.st.ResetBytes...)
	st.Active = len(l.bodies)
	return st
}

// open connects through dial and returns the body behind the link.
func (l *link) open(ctx context.Context, dial func(context.Context) (io.ReadCloser, error)) (io.ReadCloser, error) {
	l.mu.Lock()
	hold := l.holds > 0
	refuse := !hold && l.partitioned()
	if hold {
		l.holds--
	} else if refuse {
		l.st.Refused++
	}
	l.mu.Unlock()
	if refuse {
		return nil, errRefused
	}
	rc, err := dial(ctx)
	if err != nil {
		return nil, err
	}
	if hold {
		<-ctx.Done()
		rc.Close()
		l.mu.Lock()
		l.st.Held++
		l.mu.Unlock()
		return nil, ctx.Err()
	}
	b := &linkBody{l: l, ctx: ctx, rc: rc, limit: -1, done: make(chan struct{})}
	l.mu.Lock()
	if len(l.resetAt) > 0 {
		b.limit, l.resetAt = l.resetAt[0], l.resetAt[1:]
	}
	l.bodies[b] = struct{}{}
	l.st.Opened++
	l.mu.Unlock()
	return b, nil
}

// source is a follower's StreamSource: wal.HTTPSource behind the link.
func (l *link) source(base string) wal.StreamSource {
	dial := wal.HTTPSource(base, nil)
	return func(ctx context.Context, from uint64) (io.ReadCloser, error) {
		return l.open(ctx, func(ctx context.Context) (io.ReadCloser, error) { return dial(ctx, from) })
	}
}

// reset ends b as a reset connection, unless it has ended already.
func (l *link) reset(b *linkBody) {
	l.mu.Lock()
	_, open := l.bodies[b]
	if open {
		delete(l.bodies, b)
		l.st.Resets++
		l.st.ResetBytes = append(l.st.ResetBytes, b.n)
	}
	l.mu.Unlock()
	b.close()
}

// delay is one read's: latency, jitter and n bytes at the rate.
func (l *link) delay(n int) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	d := l.latency
	if l.jitter > 0 {
		d += time.Duration(l.rng.Int63n(int64(l.jitter)))
	}
	if l.bytesPerSec > 0 {
		d += time.Duration(int64(n) * int64(time.Second) / l.bytesPerSec)
	}
	return d
}

// linkBody is one connection: a response body read through the link.
type linkBody struct {
	l     *link
	ctx   context.Context
	rc    io.ReadCloser
	limit int64 // bytes after which the link resets it; -1 for none
	n     int64 // bytes delivered; written under l.mu by the reader
	once  sync.Once
	done  chan struct{}
}

func (b *linkBody) Read(p []byte) (int, error) {
	if b.limit >= 0 {
		if b.n >= b.limit {
			b.l.reset(b)
			return 0, errCut
		}
		p = p[:min(int64(len(p)), b.limit-b.n)]
	}
	n, err := b.rc.Read(p)
	var d time.Duration
	if n > 0 {
		d = b.l.delay(n)
	}
	if !b.pass(d) {
		return 0, errCut
	}
	b.l.mu.Lock()
	b.n += int64(n)
	b.l.st.Bytes += int64(n)
	b.l.mu.Unlock()
	return n, err
}

// pass waits d, then until the link is healed; false means the
// connection ended meanwhile.
func (b *linkBody) pass(d time.Duration) bool {
	if d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
		case <-b.done:
			return false
		case <-b.ctx.Done():
			return false
		}
	}
	b.l.mu.Lock()
	healed := b.l.healed
	b.l.mu.Unlock()
	select {
	case <-healed:
	case <-b.done:
		return false
	case <-b.ctx.Done():
		return false
	}
	select {
	case <-b.done:
		return false
	default:
		return true
	}
}

func (b *linkBody) Close() error {
	b.l.mu.Lock()
	delete(b.l.bodies, b)
	b.l.mu.Unlock()
	b.close()
	return nil
}

func (b *linkBody) close() {
	b.once.Do(func() {
		close(b.done)
		b.rc.Close()
	})
}

// dialGet is a dial for link.open: a GET of u, whose body is the
// connection.
func dialGet(u string) func(context.Context) (io.ReadCloser, error) {
	return func(ctx context.Context) (io.ReadCloser, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
		if err != nil {
			return nil, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return nil, fmt.Errorf("GET %s: %s", u, resp.Status)
		}
		return resp.Body, nil
	}
}

// chaosRig is one leader that followers and subscribers reach through a
// link: a persistent store and the production HTTP server in front of it.
type chaosRig struct {
	t      *testing.T
	leader *wal.Store
	dir    string // the leader's data directory
	link   *link
	url    string // the server's URL; reads of it bypass the link
	txns   []db.Transaction
	next   int // txns[:next] are applied
}

func newChaosRig(t *testing.T) *chaosRig {
	t.Helper()
	initial, txns, err := workload.GeneratePinned(workload.Config{
		Tuples: 150, Pool: 20, Group: 3, Updates: 90,
		QueriesPerTxn: 2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := wal.Open(dir,
		wal.WithInitialDatabase(initial),
		wal.WithSync(wal.SyncNever),
		wal.WithSegmentSize(4096),
		wal.WithHeartbeatEvery(20*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(st, server.WithLogf(t.Logf))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.DrainStreams()
		ts.Close()
		srv.Close()
		st.Close()
	})
	return &chaosRig{t: t, leader: st, dir: dir, link: newLink(), url: ts.URL, txns: txns}
}

// apply commits the next n transactions on the leader (all remaining
// if n < 0).
func (c *chaosRig) apply(n int) {
	c.t.Helper()
	end := c.next + n
	if n < 0 || end > len(c.txns) {
		end = len(c.txns)
	}
	for ; c.next < end; c.next++ {
		if err := c.leader.ApplyTransaction(&c.txns[c.next]); err != nil {
			c.t.Fatalf("ApplyTransaction %d: %v", c.next, err)
		}
	}
}

// follower opens a replica reading the leader through the link, tuned
// aggressively so fault detection and redial cycles fit a test run:
// short stall timeout, fast jittered redial.
func (c *chaosRig) follower() *wal.Follower {
	c.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	f, err := wal.OpenFollower(ctx, c.t.TempDir(), c.link.source(c.url),
		wal.WithSync(wal.SyncNever),
		wal.WithSegmentSize(4096),
		wal.WithStreamStallTimeout(300*time.Millisecond),
		wal.WithRedialBackoff(5*time.Millisecond, 50*time.Millisecond),
	)
	if err != nil {
		c.t.Fatalf("OpenFollower: %v", err)
	}
	c.t.Cleanup(func() { f.Close() })
	return f
}

// bootstrap measures what a fresh follower is shipped first: the hello
// frame, read off a stream straight from the server, and the leader's
// one checkpoint, taken of the initial rows at LSN 0.
func (c *chaosRig) bootstrap() (hello, ckpt int64) {
	c.t.Helper()
	ckpts, err := filepath.Glob(filepath.Join(c.dir, "checkpoint-*.ckpt"))
	if err != nil || len(ckpts) != 1 {
		c.t.Fatalf("leader checkpoints %v (%v), want one", ckpts, err)
	}
	fi, err := os.Stat(ckpts[0])
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := http.Get(c.url + "/v1/replication/stream?from=0")
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	var hdr [8]byte // | length u32 LE | CRC32C u32 LE |
	if _, err := io.ReadFull(resp.Body, hdr[:]); err != nil {
		c.t.Fatal(err)
	}
	return int64(len(hdr)) + int64(binary.LittleEndian.Uint32(hdr[:4])), fi.Size()
}

// waitActive waits until some connection is open through the link, so
// that a reset finds one.
func (c *chaosRig) waitActive() {
	c.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.link.Stats().Active == 0 {
		if time.Now().After(deadline) {
			c.t.Fatalf("no connection opened through the link: %+v", c.link.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

func snapshotBytes(t *testing.T, e engine.DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := provstore.SaveSnapshot(&buf, e); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// converge heals the link, waits for the follower to reach the
// leader's LSN, and asserts byte-identical snapshots — the battery's
// single acceptance criterion.
func (c *chaosRig) converge(f *wal.Follower) {
	c.t.Helper()
	c.link.Heal()
	target := c.leader.Stats().LSN
	deadline := time.Now().Add(30 * time.Second)
	for f.ReplicaStats().AppliedLSN < target {
		if time.Now().After(deadline) {
			rs := f.ReplicaStats()
			c.t.Fatalf("follower stuck at LSN %d waiting for %d (stalls=%d reconnects=%d lastError=%q)",
				rs.AppliedLSN, target, rs.Stalls, rs.Reconnects, rs.LastError)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Readiness is set just after the applied LSN is published, so a
	// caught-up follower may take a moment to say so.
	for !f.Ready() {
		if time.Now().After(deadline) {
			c.t.Fatal("caught-up follower is not ready")
		}
		time.Sleep(2 * time.Millisecond)
	}
	want, got := snapshotBytes(c.t, c.leader), snapshotBytes(c.t, f)
	if !bytes.Equal(want, got) {
		c.t.Fatalf("follower snapshot diverged after faults: %d vs %d bytes", len(want), len(got))
	}
}

// TestNetChaosPartitionHeal: the link goes silent mid-stream (no end of
// stream) while the leader keeps committing. The follower's stall
// timeout must detect the dead stream and redial through the refused
// phase; a redial that connects and is never answered must be ended by
// the same timer. After the heal the follower converges.
func TestNetChaosPartitionHeal(t *testing.T) {
	c := newChaosRig(t)
	c.apply(20)
	f := c.follower()
	c.converge(f)

	c.link.Partition()
	c.apply(30) // committed into the void
	// Hold the partition until the follower has both detected the dead
	// stream and had a redial refused, then hold one redial silent until
	// the follower gives up on it — only then does the heal make the
	// recovery meaningful.
	deadline := time.Now().Add(15 * time.Second)
	for f.ReplicaStats().Stalls == 0 || c.link.Stats().Refused == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("follower never churned against the partition: %+v, link %+v",
				f.ReplicaStats(), c.link.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	stalls := f.ReplicaStats().Stalls
	c.link.HoldOpen()
	for c.link.Stats().Held == 0 || f.ReplicaStats().Stalls == stalls {
		if time.Now().After(deadline) {
			t.Fatalf("a redial held silent was never ended as a stall: %+v, link %+v",
				f.ReplicaStats(), c.link.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.apply(-1)
	c.converge(f)

	rs := f.ReplicaStats()
	if rs.Stalls == 0 || rs.Reconnects == 0 {
		t.Fatalf("partition left no trace: stalls=%d reconnects=%d", rs.Stalls, rs.Reconnects)
	}
	if c.link.Stats().Refused == 0 {
		t.Fatal("no redial was refused during the partition — the link never saw the churn")
	}
}

// TestNetChaosLatencyJitter: a slow, jittery link (15ms ± 10ms per
// read) must delay convergence, never corrupt it.
func TestNetChaosLatencyJitter(t *testing.T) {
	const latency = 15 * time.Millisecond
	c := newChaosRig(t)
	c.link.SetLatency(latency, 10*time.Millisecond)
	c.apply(20)
	start := time.Now()
	f := c.follower()
	if took := time.Since(start); took < latency {
		t.Fatalf("bootstrap took %v through a link delaying each read by at least %v", took, latency)
	}
	c.apply(-1)
	c.converge(f)
}

// TestNetChaosBandwidthCrawl: the checkpoint bootstrap squeezed through
// a 32 KiB/s straw takes at least its bytes over the rate, and still
// produces identical bytes. A read is at most the client's 4 KiB
// buffer, so no single delay nears the stall timeout.
func TestNetChaosBandwidthCrawl(t *testing.T) {
	const rate = 32 << 10
	c := newChaosRig(t)
	c.link.SetBandwidth(rate)
	c.apply(40)
	hello, ckpt := c.bootstrap()
	start := time.Now()
	f := c.follower()
	took, least := time.Since(start), time.Duration((hello+ckpt)*int64(time.Second)/rate)
	if took < least {
		t.Fatalf("bootstrap of %d bytes took %v at %d B/s, want at least %v", hello+ckpt, took, rate, least)
	}
	c.apply(-1)
	c.converge(f)
}

// TestNetChaosConnectionFlaps: repeated resets between apply bursts —
// the reconnect-storm shape. Full-jitter backoff plus the resumable
// stream must absorb every flap.
func TestNetChaosConnectionFlaps(t *testing.T) {
	c := newChaosRig(t)
	c.apply(10)
	f := c.follower()
	c.converge(f)
	for i := 0; i < 5; i++ {
		c.apply(10)
		c.waitActive()
		c.link.ResetAll()
	}
	c.apply(-1)
	c.converge(f)

	rs := f.ReplicaStats()
	if rs.Reconnects == 0 {
		t.Fatalf("flap schedule produced no reconnects: %+v", rs)
	}
	if got := c.link.Stats().Resets; got != 5 {
		t.Fatalf("link reset %d connections, want one a flap, 5", got)
	}
}

// TestNetChaosMidStreamReset: three resets land inside the checkpoint
// the bootstrap ships — the worst moment, part of a snapshot on the
// wire — a quarter, a half and three quarters into it. The follower
// must redial and re-enter the bootstrap cleanly each time, and install
// the checkpoint once.
func TestNetChaosMidStreamReset(t *testing.T) {
	c := newChaosRig(t)
	c.apply(40)
	hello, ckpt := c.bootstrap()
	at := []int64{hello + ckpt/4, hello + ckpt/2, hello + 3*ckpt/4}
	c.link.ResetAt(at...)
	f := c.follower()
	c.apply(-1)
	c.converge(f)

	st := c.link.Stats()
	if !reflect.DeepEqual(st.ResetBytes, at) {
		t.Fatalf("resets delivered %v body bytes, want %v", st.ResetBytes, at)
	}
	for _, n := range st.ResetBytes {
		if n >= hello+ckpt {
			t.Fatalf("a reset connection delivered %d bytes, not inside the %d of hello and checkpoint", n, hello+ckpt)
		}
	}
	if rs := f.ReplicaStats(); rs.Resyncs != 1 || rs.Reconnects < 3 {
		t.Fatalf("resyncs=%d reconnects=%d, want one checkpoint installed after at least 3 reconnects",
			rs.Resyncs, rs.Reconnects)
	}
}

// subFrame mirrors subscribe.Frame for the client side of the wire.
type subFrame struct {
	Type    string          `json:"type"`
	Rows    []subscribe.Row `json:"rows"`
	Added   []subscribe.Row `json:"added"`
	Removed []subscribe.Row `json:"removed"`
	Changed []subscribe.Row `json:"changed"`
}

// subClient is a reconnecting SSE subscriber: it mirrors the watch
// subscription into a local map, replacing it on ack/resync frames and
// editing it on deltas, and redials with a short sleep whenever the
// stream breaks.
type subClient struct {
	mu         sync.Mutex
	state      map[string]string
	reconnects int
}

func rowKey(r subscribe.Row) string { return fmt.Sprint(r.Tuple) }

func (sc *subClient) applyFrame(f subFrame) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	switch f.Type {
	case "ack", "resync":
		sc.state = make(map[string]string, len(f.Rows))
		for _, r := range f.Rows {
			sc.state[rowKey(r)] = r.Annotation
		}
	case "delta":
		for _, r := range f.Added {
			sc.state[rowKey(r)] = r.Annotation
		}
		for _, r := range f.Changed {
			sc.state[rowKey(r)] = r.Annotation
		}
		for _, r := range f.Removed {
			delete(sc.state, rowKey(r))
		}
	}
}

func (sc *subClient) snapshot() map[string]string {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	out := make(map[string]string, len(sc.state))
	for k, v := range sc.state {
		out[k] = v
	}
	return out
}

// run dials and re-dials the SSE stream through the link until ctx
// ends.
func (sc *subClient) run(ctx context.Context, l *link, subURL string) {
	first := true
	for ctx.Err() == nil {
		if !first {
			sc.mu.Lock()
			sc.reconnects++
			sc.mu.Unlock()
			select {
			case <-ctx.Done():
				return
			case <-time.After(20 * time.Millisecond):
			}
		}
		first = false
		body, err := l.open(ctx, dialGet(subURL))
		if err != nil {
			continue
		}
		scanner := bufio.NewScanner(body)
		scanner.Buffer(make([]byte, 64<<10), 8<<20)
		for scanner.Scan() {
			line := scanner.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var f subFrame
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &f); err != nil {
				continue
			}
			sc.applyFrame(f)
		}
		body.Close()
	}
}

// leaderAck fetches a fresh ack straight from the server (not through
// the link) — the oracle state a recovered subscriber must match.
func leaderAck(t *testing.T, subURL string) map[string]string {
	t.Helper()
	resp, err := http.Get(subURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 64<<10), 8<<20)
	for scanner.Scan() {
		line := scanner.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var f subFrame
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &f); err != nil {
			t.Fatal(err)
		}
		if f.Type != "ack" {
			continue
		}
		state := make(map[string]string, len(f.Rows))
		for _, r := range f.Rows {
			state[rowKey(r)] = r.Annotation
		}
		return state
	}
	t.Fatal("no ack frame on the direct stream")
	return nil
}

// TestNetChaosSubscriberReconverges: a live SSE subscriber rides
// through a partition and a flap burst while the leader keeps
// committing. After the heal, the client's mirrored state must equal a
// fresh ack taken directly from the leader — deltas, resyncs and
// reconnect acks composing to the same rows.
func TestNetChaosSubscriberReconverges(t *testing.T) {
	c := newChaosRig(t)
	c.apply(10)

	subURL := c.url + "/v1/subscribe?spec=" +
		url.QueryEscape(`{"id":"w","kind":"watch","rel":"R","match":[null,null,null,null,null]}`)

	sc := &subClient{state: map[string]string{}}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go sc.run(ctx, c.link, subURL)

	// Let the first ack land, then run the fault schedule under load.
	time.Sleep(100 * time.Millisecond)
	c.apply(20)
	c.link.Partition()
	c.apply(20)
	time.Sleep(150 * time.Millisecond)
	c.link.Heal()
	c.apply(20)
	for i := 0; i < 3; i++ {
		c.waitActive()
		c.link.ResetAll()
		c.apply(5)
	}
	c.apply(-1)

	// The reconnecting client must converge to the leader's rows.
	want := leaderAck(t, subURL)
	deadline := time.Now().Add(20 * time.Second)
	for {
		if got := sc.snapshot(); reflect.DeepEqual(got, want) {
			break
		}
		if time.Now().After(deadline) {
			got := sc.snapshot()
			t.Fatalf("subscriber state never reconverged: client %d rows, leader %d rows", len(got), len(want))
		}
		time.Sleep(10 * time.Millisecond)
	}
	sc.mu.Lock()
	reconnects := sc.reconnects
	sc.mu.Unlock()
	if reconnects == 0 {
		t.Fatal("fault schedule produced no subscriber reconnects")
	}
}
