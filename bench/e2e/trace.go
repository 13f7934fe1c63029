package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"hyperprov/internal/admission"
	"hyperprov/internal/core"
	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/parser"
	"hyperprov/internal/provstore"
	"hyperprov/internal/server"
	"hyperprov/internal/subscribe"
	"hyperprov/internal/upstruct"
	"hyperprov/internal/wal"
)

// The traced pass measures the layers from outside, through their
// public functions: three twins are fed the same op list in lockstep
// and the harness records a span around every call.
//
//	T1  server.New(store).Handler().ServeHTTP      the whole request path
//	T2  parser → admission → wal.Store.ApplyBatch   the harness plays the handler
//	T3  engine.Open(…).ApplyBatch                   the bare engine
//
// A layer's self time is its span minus its children; where a child is
// only callable on another twin, the difference of twins stands in for
// it (wal self = T2 store apply − T3 engine apply). Spans inside the
// program are a later issue.

// span is one timed call into a layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // the span that caused it; 0 for a root
	Op     int    `json:"op"`               // index into the plan's write list
	Twin   string `json:"twin"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"` // since the pass began
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory; they are written out when the pass
// ends.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(twin, layer string, op, parent int) int {
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Op: op, Twin: twin, Layer: layer,
		Start: int64(time.Since(r.t0)),
	})
	return len(r.spans)
}

func (r *recorder) end(id int) { r.spans[id-1].End = int64(time.Since(r.t0)) }

// layerTimes aggregates spans by layer name.
type layerTimes struct {
	total map[string]time.Duration // Σ duration
	self  map[string]time.Duration // Σ duration − Σ children
	each  map[string][]float64     // per-span durations in µs
}

func (r *recorder) aggregate() layerTimes {
	lt := layerTimes{
		total: make(map[string]time.Duration),
		self:  make(map[string]time.Duration),
		each:  make(map[string][]float64),
	}
	for _, s := range r.spans {
		d := time.Duration(s.End - s.Start)
		lt.total[s.Layer] += d
		lt.self[s.Layer] += d
		lt.each[s.Layer] = append(lt.each[s.Layer], float64(d)/float64(time.Microsecond))
		if s.Parent != 0 {
			lt.self[r.spans[s.Parent-1].Layer] -= d
		}
	}
	return lt
}

func (r *recorder) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// emptySpanCost calibrates what recording one span costs.
func emptySpanCost() time.Duration {
	const n = 200000
	r := &recorder{t0: time.Now(), spans: make([]span, 0, n)}
	start := time.Now()
	for i := 0; i < n; i++ {
		r.end(r.begin("cal", "cal", i, 0))
	}
	return time.Since(start) / n
}

// Layer names of the spans (also the README's span glossary).
const (
	spIngest     = "server.ingest"        // T1: handler, POST /v1/ingest
	spAnnotation = "server.annotation"    // T1: handler, POST /v1/annotation
	spWhatif     = "server.whatif"        // T1: handler, POST /v1/whatif/*
	spCheckpoint = "server.checkpoint"    // T1: handler, POST /v1/checkpoint
	spSnapshot   = "server.snapshot"      // T1: handler, GET /v1/snapshot (the end-state comparison)
	spHandler    = "harness.ingest"       // T2: the harness playing the ingest handler
	spParse      = "parser.parse"         // T2 child
	spAdmit      = "admission.acquire"    // T2 child: admit, and again release
	spWalApply   = "wal.apply"            // T2 child: Store.ApplyBatch
	spRestrict   = "engine.restrict"      // T2: BoolRestrictParallel on the store
	spWalCkpt    = "wal.checkpoint"       // T2: Store.Checkpoint
	spFollower   = "wal.follower_visible" // T2: ApplyBatch return → follower applied LSN caught up
	spEngApply   = "engine.apply"         // T3: ApplyBatch
	spEngAnnot   = "engine.annotation"    // T3: Annotation
	spEngPin     = "engine.view_pin"      // T3: At(Horizon())
	spSubApply   = "subscribe.apply"      // T4: ApplyBatch on the engine carrying the manager
	spRespec     = "subscribe.respec"     // T4: ApplyBatch return → Manager.Sync return
)

// traceResult is what the traced pass measured beyond its spans.
type traceResult struct {
	rec          *recorder
	ops          int // writes replayed (a prefix of the plan)
	txns         int
	bodyBytes    int
	respBytes    int64 // Σ what-if response bytes on T1
	whatifs      int
	walBytes     float64 // log bytes T2 appended over the traced writes
	ckptS        float64
	ckptMB       float64
	recoverS     float64
	replayed     float64
	saveS        float64
	loadS        float64
	snapshotMB   float64
	evalNsPerRow float64
	minimizeS    float64
	fsyncP50us   float64
	bootstrapS   float64 // in-process follower: open → ready
	fanoutRows   float64 // subscription rows re-specialized per commit
	wallS        float64
}

// twins holds the in-process systems of one traced pass.
type twins struct {
	p   *plan
	rec *recorder

	t1Store *wal.Store
	t1Srv   *server.Server
	t1      http.Handler
	t2      *wal.Store
	adm     *admission.Controller
	t3      engine.DB

	// replica_fanout only.
	streamSrv *httptest.Server
	follower  *wal.Follower
	t4        engine.DB
	subs      *subscribe.Manager
	subConn   *subscribe.Conn
	drained   chan struct{}
}

// engineOptions and storeOptions mirror the benchmark servers' flags
// for the in-process twins; no checkpoint cadence — the pass
// checkpoints explicitly.
func (p *plan) engineOptions() []engine.Option {
	return []engine.Option{engine.WithShards(1), engine.WithAutoIndex(p.autoIndex)}
}

func (p *plan) storeOptions() []wal.Option {
	return []wal.Option{
		wal.WithMode(engine.ModeNormalForm), wal.WithSync(wal.SyncNever),
		wal.WithEngineOptions(p.engineOptions()...),
	}
}

func openTwins(p *plan, dir string) (tw *twins, res *traceResult, err error) {
	tw = &twins{p: p, rec: newRecorder()}
	res = &traceResult{rec: tw.rec}
	defer func() {
		if err != nil {
			tw.close()
		}
	}()
	if tw.t1Store, err = wal.Open(filepath.Join(dir, "t1"), append(p.storeOptions(), wal.WithInitialDatabase(p.initial))...); err != nil {
		return nil, nil, err
	}
	tw.t1Srv = server.New(tw.t1Store, server.WithLogf(func(string, ...any) {}))
	tw.t1 = tw.t1Srv.Handler()
	if tw.t2, err = wal.Open(filepath.Join(dir, "t2"), append(p.storeOptions(), wal.WithInitialDatabase(p.initial))...); err != nil {
		return nil, nil, err
	}
	tw.adm = admission.NewController(admission.Unlimited())
	tw.t3 = engine.Open(engine.ModeNormalForm, p.initial, p.engineOptions()...)
	for i := range p.pre {
		for _, d := range []engine.DB{tw.t1Store, tw.t2, tw.t3} {
			if _, err = d.ApplyBatch(context.Background(), p.pre[i].txns); err != nil {
				return nil, nil, err
			}
		}
	}
	if !p.follower {
		return tw, res, nil
	}
	// replica_fanout: T2 becomes a leader with an in-process follower
	// on its stream, and a fourth engine carries the subscription
	// manager with the plan's 32 subscriptions.
	tw.streamSrv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		from, _ := strconv.ParseUint(req.URL.Query().Get("from"), 10, 64)
		_ = tw.t2.ServeStream(req.Context(), w, from)
	}))
	opened := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), readyTimeout)
	defer cancel()
	tw.follower, err = wal.OpenFollower(ctx, filepath.Join(dir, "follower"), wal.HTTPSource(tw.streamSrv.URL, nil),
		wal.WithSync(wal.SyncNever), wal.WithEngineOptions(p.engineOptions()...))
	if err != nil {
		return nil, nil, err
	}
	for !tw.follower.Ready() {
		if ctx.Err() != nil {
			return nil, nil, fmt.Errorf("in-process follower never became ready")
		}
		time.Sleep(200 * time.Microsecond)
	}
	res.bootstrapS = time.Since(opened).Seconds()
	tw.t4 = engine.Open(engine.ModeNormalForm, p.initial, p.engineOptions()...)
	tw.subs = subscribe.NewManager(tw.t4)
	tw.subConn = tw.subs.Attach(streamBuffer)
	for _, sp := range p.subs {
		if _, err = tw.subs.Subscribe(tw.subConn, sp); err != nil {
			return nil, nil, err
		}
	}
	// Frames are drained and dropped: what is measured is the manager
	// folding a commit into 32 states, not a client reading them.
	tw.drained = make(chan struct{})
	go func() {
		defer close(tw.drained)
		for {
			if _, err := tw.subConn.Next(context.Background()); err != nil {
				return
			}
		}
	}()
	return tw, res, nil
}

// closeReplica stops the replica_fanout extras: the subscription
// manager, the follower and the stream it was fed from.
func (tw *twins) closeReplica() {
	if tw.subs != nil {
		tw.subs.Close() // closes the connection; the drain goroutine ends
		if tw.drained != nil {
			<-tw.drained
		}
		tw.subs = nil
	}
	if tw.follower != nil {
		_ = tw.follower.Close()
		tw.follower = nil
	}
	if tw.streamSrv != nil {
		tw.streamSrv.CloseClientConnections()
		tw.streamSrv.Close()
		tw.streamSrv = nil
	}
}

func (tw *twins) close() {
	tw.closeReplica()
	if tw.t1Srv != nil {
		tw.t1Srv.Close()
	}
	for _, st := range []*wal.Store{tw.t1Store, tw.t2} {
		if st != nil {
			_ = st.Close()
		}
	}
}

// serve runs one request through T1's handler inside a span.
func (tw *twins) serve(layer string, op int, method, path string, body []byte) (*httptest.ResponseRecorder, error) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	w := httptest.NewRecorder()
	id := tw.rec.begin("T1", layer, op, 0)
	tw.t1.ServeHTTP(w, req)
	tw.rec.end(id)
	if w.Code != http.StatusOK {
		return nil, fmt.Errorf("T1 %s answered %d: %.200s", path, w.Code, w.Body.Bytes())
	}
	return w, nil
}

// write feeds writes[i] to every twin.
func (tw *twins) write(i int, res *traceResult) error {
	in := &tw.p.writes[i]
	ctx := context.Background()
	if _, err := tw.serve(spIngest, i, http.MethodPost, "/v1/ingest", in.body); err != nil {
		return err
	}

	rec := tw.rec
	root := rec.begin("T2", spHandler, i, 0)
	id := rec.begin("T2", spAdmit, i, root)
	release, err := tw.adm.Admit(ctx, admission.ClassWrite)
	rec.end(id)
	if err != nil {
		return err
	}
	id = rec.begin("T2", spParse, i, root)
	txns, err := parser.ParseSQLLog(tw.t2.Schema(), string(in.body))
	rec.end(id)
	if err != nil {
		return err
	}
	id = rec.begin("T2", spWalApply, i, root)
	_, err = tw.t2.ApplyBatch(ctx, txns)
	rec.end(id)
	if err != nil {
		return err
	}
	applied := time.Now()
	id = rec.begin("T2", spAdmit, i, root)
	release()
	rec.end(id)
	rec.end(root)
	if tw.follower != nil {
		// Leader and follower number their epochs differently (the
		// follower's horizon starts past its bootstrap), so visibility
		// is the follower's applied LSN reaching the leader's, polled.
		id = rec.begin("T2", spFollower, i, 0)
		for target := tw.t2.LSN(); tw.follower.ReplicaStats().AppliedLSN < target; {
			if time.Since(applied) > readyTimeout {
				return fmt.Errorf("in-process follower stuck below LSN %d", target)
			}
			time.Sleep(10 * time.Microsecond)
		}
		rec.end(id)
		// The span starts a few hundred nanoseconds after ApplyBatch
		// returned; backdate it to that instant.
		rec.spans[id-1].Start = int64(applied.Sub(rec.t0))
	}

	id = rec.begin("T3", spEngApply, i, 0)
	_, err = tw.t3.ApplyBatch(ctx, in.txns)
	rec.end(id)
	if err != nil {
		return err
	}
	if tw.t4 != nil {
		id = rec.begin("T4", spSubApply, i, 0)
		_, err = tw.t4.ApplyBatch(ctx, in.txns)
		rec.end(id)
		if err != nil {
			return err
		}
		id = rec.begin("T4", spRespec, i, 0)
		tw.subs.Sync()
		rec.end(id)
	}
	res.txns += len(in.txns)
	res.bodyBytes += len(in.body)
	return nil
}

// read feeds reads[k] to the twins that can answer it; op is the write
// it follows.
func (tw *twins) read(k, op int, exp *expected, res *traceResult) error {
	r := &tw.p.reads[k]
	rec := tw.rec
	path, body, err := r.request()
	if err != nil {
		return err
	}
	layer := spWhatif
	if r.kind == readAnnotation {
		layer = spAnnotation
	}
	w, err := tw.serve(layer, op, http.MethodPost, path, body)
	if err != nil {
		return err
	}
	rows, err := r.check(w.Body.Bytes())
	if err != nil {
		return fmt.Errorf("T1: %v", err)
	}
	if r.kind == readAnnotation {
		id := rec.begin("T3", spEngPin, op, 0)
		view := tw.t3.At(tw.t3.Horizon())
		rec.end(id)
		id = rec.begin("T3", spEngAnnot, op, 0)
		ann := view.Annotation(r.rel, r.tuple)
		rec.end(id)
		if ann == nil {
			return fmt.Errorf("T3: %s %v not found", r.rel, r.tuple)
		}
		return nil
	}
	res.respBytes += int64(w.Body.Len())
	res.whatifs++
	id := rec.begin("T2", spRestrict, op, 0)
	d, err := engine.BoolRestrictParallel(context.Background(), tw.t2, whatifEnv(r), 0)
	rec.end(id)
	if err != nil {
		return err
	}
	if want := exp.whatifRows[k]; rows != want || d.NumTuples() != want {
		return fmt.Errorf("what-if %d leaves %d rows on T1 and %d on T2, the oracle's leaves %d", k, rows, d.NumTuples(), want)
	}
	return nil
}

// tracePass replays the first p.traceOps writes (and the reads that go
// with them) on the twins, checks the twins end byte-identical to each
// other and to the oracle at that point, and measures the end-state
// layer costs.
func tracePass(p *plan, exp *expected, dir string) (*traceResult, error) {
	tw, res, err := openTwins(p, dir)
	if err != nil {
		return nil, err
	}
	defer tw.close()
	started := time.Now()
	res.ops = p.traceOps
	ckptAt := p.traceOps * 9 / 10 // a tenth of the log is left to replay on recovery
	readsDone := 0
	// Log bytes are the growth of T2's wal-*.seg files; the checkpoint
	// rotates and prunes them, so the growth is summed on either side.
	segBase, err := globBytes(tw.t2.Dir(), "wal-*.seg")
	if err != nil {
		return nil, err
	}
	logGrowth := func() error {
		now, err := globBytes(tw.t2.Dir(), "wal-*.seg")
		res.walBytes += float64(now - segBase)
		return err
	}
	for i := 0; i < p.traceOps; i++ {
		if err := tw.write(i, res); err != nil {
			return nil, fmt.Errorf("traced write %d: %v", i, err)
		}
		// Reads follow their write in lockstep; the open-loop reads of
		// bulk_scan are spread evenly over the writes.
		readsDue := 0
		switch {
		case p.readEvery > 0:
			readsDue = (i + 1) / p.readEvery
		case p.readRate > 0:
			readsDue = (i + 1) * len(p.reads) / len(p.writes)
		}
		for ; readsDone < readsDue && readsDone < len(p.reads); readsDone++ {
			if err := tw.read(readsDone, i, exp, res); err != nil {
				return nil, fmt.Errorf("traced read %d: %v", readsDone, err)
			}
		}
		if i+1 == ckptAt {
			if err := logGrowth(); err != nil {
				return nil, err
			}
			if _, err := tw.serve(spCheckpoint, i, http.MethodPost, "/v1/checkpoint", nil); err != nil {
				return nil, err
			}
			id := tw.rec.begin("T2", spWalCkpt, i, 0)
			err := tw.t2.Checkpoint()
			tw.rec.end(id)
			if err != nil {
				return nil, err
			}
			res.ckptS = time.Duration(tw.rec.spans[id-1].End - tw.rec.spans[id-1].Start).Seconds()
			ckptBytes, err := globBytes(tw.t2.Dir(), "checkpoint-*.ckpt")
			if err != nil {
				return nil, err
			}
			res.ckptMB = float64(ckptBytes) / (1 << 20) // the new one superseded the rest
			if segBase, err = globBytes(tw.t2.Dir(), "wal-*.seg"); err != nil {
				return nil, err
			}
		}
	}
	res.wallS = time.Since(started).Seconds()
	if err := logGrowth(); err != nil {
		return nil, err
	}

	// The three twins must end with identical snapshot bytes, equal to
	// the oracle's at the same op.
	w, err := tw.serve(spSnapshot, p.traceOps, http.MethodGet, "/v1/snapshot", nil)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	t0 := time.Now()
	if err := provstore.SaveSnapshot(&buf, tw.t3); err != nil {
		return nil, err
	}
	res.saveS = time.Since(t0).Seconds()
	res.snapshotMB = float64(buf.Len()) / (1 << 20)
	var t2snap bytes.Buffer
	if err := provstore.SaveSnapshot(&t2snap, tw.t2); err != nil {
		return nil, err
	}
	if !bytes.Equal(w.Body.Bytes(), buf.Bytes()) || !bytes.Equal(t2snap.Bytes(), buf.Bytes()) {
		return nil, fmt.Errorf("the twins diverged: T1 %d bytes, T2 %d bytes, T3 %d bytes of snapshot", w.Body.Len(), t2snap.Len(), buf.Len())
	}
	if got := sha256.Sum256(buf.Bytes()); got != exp.traceDigest {
		return nil, fmt.Errorf("the twins end in %x after %d writes, the oracle in %x", got[:8], p.traceOps, exp.traceDigest[:8])
	}
	if tw.follower != nil {
		var fsnap bytes.Buffer
		if err := provstore.SaveSnapshot(&fsnap, tw.follower); err != nil {
			return nil, err
		}
		if !bytes.Equal(fsnap.Bytes(), buf.Bytes()) {
			return nil, fmt.Errorf("the in-process follower diverged from its leader")
		}
		st := tw.subs.StatsSnapshot()
		res.fanoutRows = float64(st.Fanout) / float64(res.txns)
	}

	// End-state layer costs.
	t0 = time.Now()
	if _, err := provstore.LoadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		return nil, err
	}
	res.loadS = time.Since(t0).Seconds()

	rows := 0
	t0 = time.Now()
	engine.Specialize[bool](tw.t3, upstruct.Bool, func(core.Annot) bool { return true }, func(string, db.Tuple, bool) { rows++ })
	res.evalNsPerRow = float64(time.Since(t0).Nanoseconds()) / float64(rows)

	tw.closeReplica() // nothing may stream from T2 while it is swapped
	t2dir := tw.t2.Dir()
	tw.t2.Crash()
	t0 = time.Now()
	reopened, err := wal.Open(t2dir, p.storeOptions()...)
	if err != nil {
		return nil, fmt.Errorf("reopening T2's store: %v", err)
	}
	res.recoverS = time.Since(t0).Seconds()
	res.replayed = float64(reopened.Stats().Replayed)
	tw.t2 = reopened

	if res.fsyncP50us, err = fsyncPhase(p, filepath.Join(dir, "fsync")); err != nil {
		return nil, err
	}
	// Last: minimization rewrites T3's annotations in place.
	t0 = time.Now()
	if _, err := tw.t3.MinimizeAll(context.Background()); err != nil {
		return nil, err
	}
	res.minimizeS = time.Since(t0).Seconds()
	return res, nil
}

// globBytes sums the sizes of the files in dir matching pattern.
func globBytes(dir, pattern string) (int64, error) {
	names, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil {
		return 0, err
	}
	var total int64
	for _, n := range names {
		info, err := os.Stat(n)
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}

// fsyncCommits is how many single-transaction commits the fsync side
// phase times.
const fsyncCommits = 200

// fsyncPhase times single-transaction commits under SyncAlways on an
// empty store. It describes the sandbox disk and moves nothing gated.
func fsyncPhase(p *plan, dir string) (float64, error) {
	st, err := wal.Open(dir, wal.WithMode(engine.ModeNormalForm), wal.WithSchema(p.initial.Schema()), wal.WithSync(wal.SyncAlways))
	if err != nil {
		return 0, err
	}
	defer st.Close()
	var each []float64
	for i := 0; i < fsyncCommits; i++ {
		t := p.writes[i%len(p.writes)].txns[0]
		t0 := time.Now()
		if err := st.ApplyTransaction(&t); err != nil {
			return 0, err
		}
		each = append(each, float64(time.Since(t0))/float64(time.Microsecond))
	}
	return median(each), nil
}
