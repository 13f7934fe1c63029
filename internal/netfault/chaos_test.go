// Package netfault_test is the network-chaos battery: it runs the real
// leader server, the real follower, and real subscription clients
// through the fault-injecting proxy and asserts the only acceptable
// outcome — after every fault schedule heals, replicas and subscribers
// reconverge to state byte-identical to the leader's, with the
// resilience counters (stalls, reconnects) showing the
// machinery actually fired.
package netfault_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/netfault"
	"hyperprov/internal/provstore"
	"hyperprov/internal/server"
	"hyperprov/internal/subscribe"
	"hyperprov/internal/wal"
	"hyperprov/internal/workload"
)

// chaosRig is one leader behind a fault proxy: a persistent store, the
// production HTTP server in front of it, and a netfault.Proxy that
// followers and subscribers dial instead of the server.
type chaosRig struct {
	t         *testing.T
	leader    *wal.Store
	srv       *server.Server
	proxy     *netfault.Proxy
	directURL string // the server's own URL, bypassing the proxy
	txns      []db.Transaction
	next      int // txns[:next] are applied
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
	st, err := wal.Open(t.TempDir(),
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
	p, err := netfault.New(strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		p.Close()
		srv.DrainStreams()
		ts.Close()
		srv.Close()
		st.Close()
	})
	return &chaosRig{t: t, leader: st, srv: srv, proxy: p, directURL: ts.URL, txns: txns}
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

// follower opens a replica dialing the leader through the proxy, tuned
// aggressively so fault detection and redial cycles fit a test run:
// short stall timeout, fast jittered redial.
func (c *chaosRig) follower() *wal.Follower {
	c.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	f, err := wal.OpenFollower(ctx, c.t.TempDir(), wal.HTTPSource(c.proxy.URL(), nil),
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
	c.proxy.Heal()
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

// TestNetChaosPartitionHeal: the link blackholes mid-stream (silence,
// no FIN) while the leader keeps committing. The follower's stall
// timeout must detect the dead stream, redial through the refused
// phase, and converge after the heal.
func TestNetChaosPartitionHeal(t *testing.T) {
	c := newChaosRig(t)
	c.apply(20)
	f := c.follower()
	c.converge(f)

	c.proxy.Partition()
	c.apply(30) // committed into the void
	// Hold the partition until the follower has both detected the dead
	// stream and had a redial refused — only then does the heal make
	// the recovery meaningful.
	deadline := time.Now().Add(15 * time.Second)
	for f.ReplicaStats().Stalls == 0 || c.proxy.StatsSnapshot().Refused == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("follower never churned against the partition: %+v, proxy %+v",
				f.ReplicaStats(), c.proxy.StatsSnapshot())
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.apply(-1)
	c.converge(f)

	rs := f.ReplicaStats()
	if rs.Stalls == 0 || rs.Reconnects == 0 {
		t.Fatalf("partition left no trace: stalls=%d reconnects=%d", rs.Stalls, rs.Reconnects)
	}
	if c.proxy.StatsSnapshot().Refused == 0 {
		t.Fatal("no redial was refused during the partition — the proxy never saw the churn")
	}
}

// TestNetChaosLatencyJitter: a slow, jittery link (15ms ± 10ms per
// chunk) must delay convergence, never corrupt it.
func TestNetChaosLatencyJitter(t *testing.T) {
	c := newChaosRig(t)
	c.proxy.SetLatency(15*time.Millisecond, 10*time.Millisecond)
	c.apply(20)
	f := c.follower()
	c.apply(-1)
	c.converge(f)
}

// TestNetChaosBandwidthCrawl: the checkpoint bootstrap squeezed
// through a 256 KiB/s straw still produces identical bytes.
func TestNetChaosBandwidthCrawl(t *testing.T) {
	c := newChaosRig(t)
	c.proxy.SetBandwidth(256 << 10)
	c.apply(40)
	f := c.follower()
	c.apply(-1)
	c.converge(f)
}

// TestNetChaosConnectionFlaps: repeated abortive resets between apply
// bursts — the reconnect-storm shape. Full-jitter backoff plus the
// resumable stream must absorb every flap.
func TestNetChaosConnectionFlaps(t *testing.T) {
	c := newChaosRig(t)
	c.apply(10)
	f := c.follower()
	c.converge(f)
	for i := 0; i < 5; i++ {
		c.apply(10)
		c.proxy.ResetAll()
		time.Sleep(30 * time.Millisecond)
	}
	c.apply(-1)
	c.converge(f)

	rs := f.ReplicaStats()
	if rs.Reconnects == 0 {
		t.Fatalf("flap schedule produced no reconnects: %+v", rs)
	}
	if c.proxy.StatsSnapshot().Resets == 0 {
		t.Fatal("proxy reset counter never moved")
	}
}

// TestNetChaosMidStreamReset: a single RST lands while the checkpoint
// bootstrap is crawling through a throttled link — the worst moment,
// half a snapshot on the wire. The follower must redial and re-enter
// bootstrap cleanly.
func TestNetChaosMidStreamReset(t *testing.T) {
	c := newChaosRig(t)
	c.apply(40)
	c.proxy.SetBandwidth(512 << 10) // stretch the bootstrap window
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Fire resets while the bootstrap is in flight.
		for i := 0; i < 3; i++ {
			time.Sleep(25 * time.Millisecond)
			c.proxy.ResetAll()
		}
		c.proxy.SetBandwidth(0)
	}()
	f := c.follower()
	<-done
	c.apply(-1)
	c.converge(f)
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

// run dials and re-dials the SSE stream until ctx ends.
func (sc *subClient) run(ctx context.Context, subURL string) {
	client := &http.Client{}
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
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, subURL, nil)
		if err != nil {
			return
		}
		resp, err := client.Do(req)
		if err != nil {
			continue
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			continue
		}
		scanner := bufio.NewScanner(resp.Body)
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
		resp.Body.Close()
	}
}

// leaderAck fetches a fresh ack straight from the server (no proxy) —
// the oracle state a recovered subscriber must match.
func leaderAck(t *testing.T, directURL string) map[string]string {
	t.Helper()
	resp, err := http.Get(directURL)
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

	spec := url.QueryEscape(`{"id":"w","kind":"watch","rel":"R","match":[null,null,null,null,null]}`)
	proxied := c.proxy.URL() + "/v1/subscribe?spec=" + spec

	sc := &subClient{state: map[string]string{}}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go sc.run(ctx, proxied)

	// Let the first ack land, then run the fault schedule under load.
	time.Sleep(100 * time.Millisecond)
	c.apply(20)
	c.proxy.Partition()
	c.apply(20)
	time.Sleep(150 * time.Millisecond)
	c.proxy.Heal()
	c.apply(20)
	for i := 0; i < 3; i++ {
		c.proxy.ResetAll()
		c.apply(5)
		time.Sleep(30 * time.Millisecond)
	}
	c.apply(-1)

	// The reconnecting client must converge to the leader's rows.
	leaderURL := c.directURL + "/v1/subscribe?spec=" + spec
	want := leaderAck(t, leaderURL)
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
