package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

// conn is exactly one keep-alive HTTP connection: requests issued
// through it never overlap on the wire and never open a second socket.
type conn struct{ hc *http.Client }

func newConn() *conn {
	return &conn{hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

func (c *conn) do(method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// getJSON fetches url and decodes the JSON object it answers.
func (c *conn) getJSON(url string) (map[string]any, error) {
	status, body, err := c.do(http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", url, status, body)
	}
	var out map[string]any
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, fmt.Errorf("GET %s: %v", url, err)
	}
	return out, nil
}

// snapshotDigest is the SHA-256 of GET /v1/snapshot.
func (c *conn) snapshotDigest(base string) ([32]byte, error) {
	resp, err := c.hc.Get(base + "/v1/snapshot")
	if err != nil {
		return [32]byte{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return [32]byte{}, fmt.Errorf("GET /v1/snapshot: status %d", resp.StatusCode)
	}
	h := sha256.New()
	if _, err := io.Copy(h, resp.Body); err != nil {
		return [32]byte{}, err
	}
	return [32]byte(h.Sum(nil)), nil
}

// cluster is the server process(es) of one set-up.
type cluster struct {
	leader, follower *proc
	setup            time.Duration // launch → every process ready with data loaded
	listen           time.Duration // leader launch → first /healthz 200
}

func (c *cluster) servers() []*proc {
	if c.follower != nil {
		return []*proc{c.leader, c.follower}
	}
	return []*proc{c.leader}
}

func (c *cluster) kill() {
	for _, s := range c.servers() {
		s.kill()
	}
}

const readyTimeout = 120 * time.Second

// runEnv is what every set-up of one benchmark run shares.
type runEnv struct {
	bin      string   // compiled cmd/hyperprov
	dir      string   // scratch directory of this run, removed at exit
	csvFlags []string // -data Rel=file.csv…
	w        *conn    // connection W: writes
	r        *conn    // connection R: reads, or the subscription stream
	aux      *conn    // scrapes and digests, outside the timed region only
	setups   int      // set-ups so far, to name their data directories
}

// newRunEnv makes the run's scratch directory beside the server binary
// (.bench_build/e2e in the checkout).
func newRunEnv(bin string, p *plan) (*runEnv, error) {
	dir, err := os.MkdirTemp(filepath.Dir(bin), "run-"+p.name+"-")
	if err != nil {
		return nil, err
	}
	env := &runEnv{bin: bin, dir: dir, w: newConn(), r: newConn(), aux: newConn()}
	if env.csvFlags, err = writeCSVs(filepath.Join(dir, "csv"), p.initial); err != nil {
		env.close()
		return nil, err
	}
	return env, nil
}

func (env *runEnv) close() {
	env.w.close()
	env.r.close()
	env.aux.close()
	_ = os.RemoveAll(env.dir)
}

// setUp launches fresh server process(es) for the plan and brings them
// to the state the timed region starts from: CSV bootstrap, the
// pre-applied log (whatif_read), follower attached and synced.
func (env *runEnv) setUp(p *plan) (*cluster, error) {
	env.setups++
	c := &cluster{}
	var err error
	leaderDir := filepath.Join(env.dir, fmt.Sprintf("leader%d", env.setups))
	if c.leader, err = startServer(env.bin, leaderDir, p, env.csvFlags...); err != nil {
		return nil, err
	}
	fail := func(err error) (*cluster, error) {
		c.kill()
		return nil, err
	}
	if c.listen, err = c.leader.waitOK("/healthz", readyTimeout); err != nil {
		return fail(err)
	}
	if _, err = c.leader.waitOK("/readyz", readyTimeout); err != nil {
		return fail(err)
	}
	for i := range p.pre {
		if err := env.ingestOnce(c.leader.base, &p.pre[i]); err != nil {
			return fail(fmt.Errorf("pre-applying the log: %v", err))
		}
	}
	if p.follower {
		followerDir := filepath.Join(env.dir, fmt.Sprintf("follower%d", env.setups))
		// The follower takes mode, schema and data from the leader. It
		// runs without a checkpoint cadence of its own (the later flag
		// wins): a slow fsync there stalls replay, and the burst that
		// follows outruns the subscription dispatcher — the run would
		// measure the sandbox disk.
		if c.follower, err = startServer(env.bin, followerDir, p, "-follow", c.leader.base, "-checkpoint-every", "0"); err != nil {
			return fail(err)
		}
		if _, err = c.follower.waitOK("/readyz", readyTimeout); err != nil {
			return fail(err)
		}
	}
	c.setup = time.Since(c.leader.launched)
	return c, nil
}

type ingestAck struct {
	Transactions int `json:"transactions"`
	Applied      int `json:"applied"`
}

// ingestOnce posts one ingest body on W and checks the acknowledgement
// covers every transaction in it.
func (env *runEnv) ingestOnce(base string, in *ingest) error {
	status, body, err := env.w.do(http.MethodPost, base+"/v1/ingest", in.body)
	if err != nil {
		return err
	}
	var ack ingestAck
	if status != http.StatusOK || json.Unmarshal(body, &ack) != nil || ack.Applied != len(in.txns) {
		return fmt.Errorf("ingest answered %d: %.200s", status, body)
	}
	return nil
}

// tally is one goroutine's share of a timed region.
type tally struct {
	attempted, failed int
	firstErr          error
}

func (t *tally) op(err error) bool {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
		return false
	}
	return true
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// timed is what the load generator observed over one timed region.
type timed struct {
	tally
	writeMs    []float64     // per ingest request, from its due time
	writeWall  time.Duration // first write sent → last write acknowledged
	acked      int           // transactions acknowledged
	readMs     []float64     // the workload's read op (open loop: from its due time)
	visibleMs  []float64     // replica_fanout: write due → its delta frame on the follower stream
	lateMs     []float64     // open loop: how late the generator sent
	whatifRows []int         // numTuples of what-if k (checked against the oracle afterwards)
	wall       time.Duration
	firstWrite time.Time
	lagMax     uint64 // follower lag in records, sampled (trace runs only)
}

// request renders the read op as the POST it is on the wire.
func (op *readOp) request() (path string, body []byte, err error) {
	switch op.kind {
	case readAnnotation:
		tuple := make([]any, len(op.tuple))
		for i, v := range op.tuple {
			tuple[i] = jsonValue(v)
		}
		body, err = json.Marshal(map[string]any{"rel": op.rel, "tuple": tuple})
		return "/v1/annotation", body, err
	case readDeletion:
		body, err = json.Marshal(map[string]any{"tuples": op.names})
		return "/v1/whatif/deletion", body, err
	default:
		body, err = json.Marshal(map[string]any{"labels": op.names})
		return "/v1/whatif/abort", body, err
	}
}

// check validates a 200 response to the read op as far as that goes
// without the oracle: an annotation read must answer found; for a
// what-if it returns numTuples.
func (op *readOp) check(resp []byte) (rows int, err error) {
	if op.kind == readAnnotation {
		if !bytes.Contains(resp, []byte(`"found":true`)) {
			return 0, fmt.Errorf("%s %v: not found: %.200s", op.rel, op.tuple, resp)
		}
		return 0, nil
	}
	// {"relations":{…},"numTuples":N}: the count is the last field of a
	// multi-megabyte body, so cut it out instead of decoding the lot.
	const key = `"numTuples":`
	i := bytes.LastIndex(resp, []byte(key))
	if i < 0 {
		return 0, fmt.Errorf("what-if: no numTuples in %d-byte response", len(resp))
	}
	rows, err = strconv.Atoi(string(bytes.TrimRight(bytes.TrimSpace(resp[i+len(key):]), "}")))
	if err != nil {
		return 0, fmt.Errorf("what-if: bad numTuples: %v", err)
	}
	return rows, nil
}

// doRead issues one read op on c against base and checks the answer.
func doRead(c *conn, base string, op *readOp) (rows int, err error) {
	path, body, err := op.request()
	if err != nil {
		return 0, err
	}
	status, resp, err := c.do(http.MethodPost, base+path, body)
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("%s answered %d: %.200s", path, status, resp)
	}
	return op.check(resp)
}

// drive runs the plan's timed region against the cluster.
func (env *runEnv) drive(p *plan, c *cluster, sampleLag bool) (*timed, error) {
	start := time.Now()
	var t *timed
	var err error
	switch {
	case p.follower:
		t, err = env.driveFanout(p, c, sampleLag)
	case p.readRate > 0:
		t = env.driveBeside(p, c)
	default:
		t = env.driveLockstep(p, c)
	}
	if err != nil {
		return nil, err
	}
	t.wall = time.Since(start)
	return t, nil
}

// write posts writes[i] on W and records its latency from due.
func (env *runEnv) write(t *timed, base string, in *ingest, due time.Time) bool {
	if t.firstWrite.IsZero() {
		t.firstWrite = time.Now()
	}
	err := env.ingestOnce(base, in)
	now := time.Now()
	if !t.op(err) {
		return false
	}
	t.writeWall = now.Sub(t.firstWrite)
	t.writeMs = append(t.writeMs, ms(now.Sub(due)))
	t.acked += len(in.txns)
	return true
}

// driveLockstep is one closed loop over both connections: W writes,
// and after every readEvery'th acknowledgement R issues the next read
// (a read-your-write on oltp_point, the what-if on whatif_read) before
// W continues.
func (env *runEnv) driveLockstep(p *plan, c *cluster) *timed {
	t := &timed{}
	base := c.leader.base
	for i := range p.writes {
		env.write(t, base, &p.writes[i], time.Now())
		if (i+1)%p.readEvery != 0 {
			continue
		}
		k := (i+1)/p.readEvery - 1
		if k >= len(p.reads) {
			continue
		}
		op := &p.reads[k]
		issued := time.Now()
		rows, err := doRead(env.r, base, op)
		now := time.Now()
		if op.kind != readAnnotation {
			t.whatifRows = append(t.whatifRows, rows)
		}
		if t.op(err) {
			t.readMs = append(t.readMs, ms(now.Sub(issued)))
		}
	}
	return t
}

// driveBeside runs W closed loop while R issues the plan's reads on an
// open-loop schedule beside it.
func (env *runEnv) driveBeside(p *plan, c *cluster) *timed {
	t := &timed{}
	base := c.leader.base
	var rt timed
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		pc := newPacer(p.readRate)
		for k := range p.reads {
			due, late := pc.wait(k)
			rt.lateMs = append(rt.lateMs, ms(late))
			_, err := doRead(env.r, base, &p.reads[k])
			if rt.op(err) {
				rt.readMs = append(rt.readMs, ms(time.Since(due)))
			}
		}
	}()
	for i := range p.writes {
		env.write(t, base, &p.writes[i], time.Now())
	}
	wg.Wait()
	t.add(rt.tally)
	t.readMs, t.lateMs = rt.readMs, rt.lateMs
	return t
}

// frameHead is what the generator needs of a subscription frame.
type frameHead struct {
	Type  string `json:"type"`
	Epoch uint64 `json:"epoch"`
	Label string `json:"label"`
	Code  string `json:"code"`
}

// streamBuffer is the per-connection frame queue the subscription asks
// the server for: roomy enough that a generator hiccup never makes the
// server drop frames and resync (frame_drops must stay 0).
const streamBuffer = 8192

// driveFanout writes open loop to the leader while R holds the
// subscription stream on the follower; write i is visible when the
// first delta frame carrying its label arrives there.
func (env *runEnv) driveFanout(p *plan, c *cluster, sampleLag bool) (*timed, error) {
	t := &timed{}
	specBody, err := json.Marshal(map[string]any{"subscriptions": p.subs, "buffer": streamBuffer})
	if err != nil {
		return nil, err
	}
	resp, err := env.r.hc.Post(c.follower.base+"/v1/subscribe", "application/json", bytes.NewReader(specBody))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 400))
		return nil, fmt.Errorf("subscribe answered %d: %s", resp.StatusCode, body)
	}
	frames := bufio.NewReaderSize(resp.Body, 1<<20)
	nextFrame := func() (frameHead, error) {
		line, err := frames.ReadBytes('\n')
		if err != nil {
			return frameHead{}, err
		}
		var h frameHead
		err = json.Unmarshal(line, &h)
		return h, err
	}
	// The follower commits one epoch per replicated transaction, so
	// write i lands in epoch firstEpoch+i; the acks carry the epoch
	// before the first write, and every delta frame re-derives it.
	var firstEpoch int64
	for range p.subs {
		h, err := nextFrame()
		if err != nil || h.Type != "ack" {
			return nil, fmt.Errorf("waiting for subscription acks: frame %+v, err %v", h, err)
		}
		firstEpoch = int64(h.Epoch) + 1
	}

	index := make(map[string]int, len(p.writes))
	for i := range p.writes {
		index[p.writes[i].txns[0].Label] = i
	}
	seen := make([]time.Time, len(p.writes)) // written by the stream reader, read after it has ended
	streamDone := make(chan error, 1)
	go func() {
		left, lowest := len(p.writes), 0 // lowest: no write below it is unseen
		for left > 0 {
			h, err := nextFrame()
			if err != nil {
				streamDone <- fmt.Errorf("subscription stream ended with %d writes unseen: %v", left, err)
				return
			}
			switch h.Type {
			case "delta":
				if i, ok := index[h.Label]; ok {
					firstEpoch = int64(h.Epoch) - int64(i)
					if seen[i].IsZero() {
						seen[i] = time.Now()
						left--
					}
				}
			case "resync":
				// The server dropped frames rather than block its write
				// path (a burst after a stall outran the dispatcher) and
				// sent the full state as of this epoch instead: every
				// write up to it becomes visible with this frame. The
				// traced run's subscribe.resyncs counts these.
				now := time.Now()
				for upto := int(int64(h.Epoch) - firstEpoch); lowest <= upto && lowest < len(seen); lowest++ {
					if seen[lowest].IsZero() {
						seen[lowest] = now
						left--
					}
				}
			default:
				streamDone <- fmt.Errorf("unexpected %q frame (code %q) on the stream", h.Type, h.Code)
				return
			}
		}
		streamDone <- nil
	}()
	stopLag := make(chan struct{})
	var lagWG sync.WaitGroup
	if sampleLag {
		lagWG.Add(1)
		go func() {
			defer lagWG.Done()
			for {
				select {
				case <-stopLag:
					return
				case <-time.After(100 * time.Millisecond):
				}
				if lag, err := followerLag(env.aux, c.follower.base); err == nil && lag > t.lagMax {
					t.lagMax = lag
				}
			}
		}()
	}

	pc := newPacer(p.writeRate)
	dues := make([]time.Time, len(p.writes))
	acked := make([]bool, len(p.writes))
	for i := range p.writes {
		due, late := pc.wait(i)
		dues[i] = due
		t.lateMs = append(t.lateMs, ms(late))
		acked[i] = env.write(t, c.leader.base, &p.writes[i], due)
	}
	// Every acknowledged write must reach the stream; a frame that
	// never comes fails the run here instead of hanging it.
	var streamErr error
	select {
	case streamErr = <-streamDone:
	case <-time.After(30 * time.Second):
		streamErr = fmt.Errorf("timed out waiting for the last delta frames")
		resp.Body.Close() // unblocks the reader parked in ReadBytes
		<-streamDone
	}
	close(stopLag)
	lagWG.Wait()
	for i := range p.writes {
		if !acked[i] {
			continue
		}
		var err error
		if seen[i].IsZero() {
			err = fmt.Errorf("no delta frame for %s: %v", p.writes[i].txns[0].Label, streamErr)
		}
		if t.op(err) {
			t.visibleMs = append(t.visibleMs, ms(seen[i].Sub(dues[i])))
		}
	}
	return t, nil
}

// followerLag reads lag.records off the follower's /readyz.
func followerLag(c *conn, base string) (uint64, error) {
	status, body, err := c.do(http.MethodGet, base+"/readyz", nil)
	if err != nil || status != http.StatusOK {
		return 0, fmt.Errorf("readyz: %d %v", status, err)
	}
	var r struct {
		Lag struct {
			Records uint64 `json:"records"`
		} `json:"lag"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return 0, err
	}
	return r.Lag.Records, nil
}

// scrape is a server's counters at one instant, outside the timed
// region: /v1/stats, the Go runtime's memstats from /debug/vars, CPU
// time from /proc and the data directory's size.
type scrape struct {
	stats      map[string]any
	totalAlloc float64
	mallocs    float64
	cpuS       float64
	diskBytes  int64
}

func (env *runEnv) scrape(s *proc) (*scrape, error) {
	sc := &scrape{}
	var err error
	if sc.stats, err = env.aux.getJSON(s.base + "/v1/stats"); err != nil {
		return nil, err
	}
	vars, err := env.aux.getJSON(s.base + "/debug/vars")
	if err != nil {
		return nil, err
	}
	mem, ok := vars["memstats"].(map[string]any)
	if !ok {
		return nil, fmt.Errorf("/debug/vars has no memstats")
	}
	sc.totalAlloc, _ = mem["TotalAlloc"].(float64)
	sc.mallocs, _ = mem["Mallocs"].(float64)
	if sc.cpuS, err = s.cpuSeconds(); err != nil {
		return nil, err
	}
	if sc.diskBytes, err = dirBytes(s.dir); err != nil {
		return nil, err
	}
	return sc, nil
}

// num digs a number out of a decoded /v1/stats object by path.
func num(m map[string]any, path ...string) float64 {
	var cur any = m
	for _, k := range path {
		obj, ok := cur.(map[string]any)
		if !ok {
			return 0
		}
		cur = obj[k]
	}
	f, _ := cur.(float64)
	return f
}
