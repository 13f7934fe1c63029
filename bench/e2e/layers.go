package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// runTraced is -trace 1: the oracle, a wire run with a single set-up
// (it supplies the counters scraped from the server subprocesses), then
// the in-process traced pass. It returns the
// per-layer metrics.
func runTraced(bin string, p *plan, traceOut string) (*result, error) {
	exp, err := replayOracle(p, p.traceOps)
	if err != nil {
		return nil, err
	}
	phase("oracle replayed")
	wire, err := runWire(bin, p, exp, wireOpts{setupRounds: 1, sampleLag: true})
	if err != nil {
		return nil, err
	}
	out := filepath.Dir(bin)
	dir, err := os.MkdirTemp(out, "trace-"+p.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	tr, err := tracePass(p, exp, dir)
	if err != nil {
		return nil, err
	}
	phase("traced pass: %d of %d writes on the twins in %.2fs", tr.ops, len(p.writes), tr.wallS)
	if traceOut == "" {
		traceOut = filepath.Join(out, "spans-"+p.name+".json")
	}
	if err := tr.rec.writeFile(traceOut); err != nil {
		return nil, fmt.Errorf("writing spans: %v", err)
	}
	phase("%d spans written to %s", len(tr.rec.spans), traceOut)
	return &result{Correct: true, Attempted: wire.timed.attempted, Failed: wire.timed.failed, Metrics: perLayer(p, wire, tr)}, nil
}

// perLayer assembles the per-layer metrics. Names, units and what each
// should move are tabulated in README.md; a metric that does not apply
// to the workload (no what-if, no follower) reads 0.
func perLayer(p *plan, w *wireResult, tr *traceResult) map[string]metric {
	lt := tr.rec.aggregate()
	txns := float64(tr.txns)
	perTxnUs := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) / txns }
	mean := func(layer string) float64 { // µs
		if n := len(lt.each[layer]); n > 0 {
			return float64(lt.total[layer]) / float64(time.Microsecond) / float64(n)
		}
		return 0
	}
	m := w.demoted(p)
	put := func(name string, v float64, unit, note string) { m[name] = metric{Value: v, Unit: unit, note: note} }

	// internal/server
	put("server.ingest_self_us_per_txn", perTxnUs(lt.total[spIngest]-lt.total[spParse]-lt.total[spWalApply]), "us", "T1 handler − T2 parse − T2 store apply")
	put("server.annotation_us", median(lt.each[spAnnotation]), "us", "T1 handler p50")
	put("server.whatif_self_ms", (mean(spWhatif)-mean(spRestrict))/1000, "ms", "T1 handler − T2 restrict, mean")
	if tr.whatifs > 0 {
		put("server.whatif_resp_mb", float64(tr.respBytes)/float64(tr.whatifs)/(1<<20), "MB", "")
	} else {
		put("server.whatif_resp_mb", 0, "MB", "")
	}
	wireWrites := w.timed.writeMs
	if len(wireWrites) > tr.ops {
		wireWrites = wireWrites[:tr.ops] // the same ops the twins replayed
	}
	put("server.wire_us_per_req", median(wireWrites)*1000-median(lt.each[spIngest]), "us", "loopback p50 − T1 handler p50, ingest")

	// internal/admission
	put("admission.acquire_ns", float64(lt.total[spAdmit])/float64(tr.ops), "ns", "admit+release per request, unlimited config")
	put("admission.shed", w.delta(0, "admission", "shed"), "count", "must be 0")

	// internal/parser
	put("parser.parse_us_per_txn", perTxnUs(lt.total[spParse]), "us", "")
	put("parser.body_bytes_per_txn", float64(tr.bodyBytes)/txns, "B", "")

	// internal/wal
	put("wal.apply_self_us_per_txn", perTxnUs(lt.total[spWalApply]-lt.total[spEngApply]), "us", "T2 Store.ApplyBatch − T3 engine.ApplyBatch")
	put("wal.bytes_per_txn", tr.walBytes/txns, "B", "log bytes T2 appended")
	put("wal.appended", w.delta(0, "wal", "appended"), "count", "")
	put("wal.syncs", w.delta(0, "wal", "syncs"), "count", "")
	put("wal.checkpoint_s", tr.ckptS, "s", "T2 Store.Checkpoint at 90% of the traced writes")
	put("wal.checkpoint_mb", tr.ckptMB, "MB", "")
	put("wal.recover_s", tr.recoverS, "s", "T2 Crash+Open: checkpoint load + replay")
	put("wal.replayed_records", tr.replayed, "count", "")
	put("wal.follower_bootstrap_s", tr.bootstrapS, "s", "in-process OpenFollower → Ready")
	put("wal.follower_visible_us", median(lt.each[spFollower]), "us", "leader ApplyBatch return → follower applied it, p50")
	put("wal.lag_records_max", float64(w.timed.lagMax), "count", "follower /readyz sampled every 100 ms")
	put("wal.fsync_p50_us", tr.fsyncP50us, "us", fmt.Sprintf("%d single-transaction commits under -sync always", fsyncCommits))

	// internal/engine
	put("engine.apply_us_per_txn", perTxnUs(lt.total[spEngApply]), "us", "T3")
	put("engine.full_scans", w.delta(0, "plannerFullScans"), "count", "")
	put("engine.index_scans", w.delta(0, "plannerIndexScans"), "count", "")
	put("engine.intersect_scans", w.delta(0, "plannerIntersectScans"), "count", "")
	put("engine.auto_builds", w.delta(0, "plannerAutoBuilds"), "count", "")
	put("engine.compactions", w.delta(0, "plannerCompactions"), "count", "")
	put("engine.annotation_ns", median(lt.each[spEngAnnot])*1000, "ns", "T3 p50")
	put("engine.view_pin_ns", median(lt.each[spEngPin])*1000, "ns", "T3 p50")
	put("engine.restrict_ms", median(lt.each[spRestrict])/1000, "ms", "BoolRestrictParallel p50")
	end := w.after[0].stats
	put("engine.versions", num(end, "mvccVersions"), "count", "end state")
	put("engine.epochs", num(end, "mvccEpochs"), "count", "end state")
	put("engine.rows", num(end, "rows"), "count", "end state")
	put("engine.support", num(end, "support"), "count", "end state")

	// internal/core
	put("core.prov_size", num(end, "provSize"), "count", "end state, tree nodes (Fig. 7a/8a)")
	put("core.prov_dag_size", num(end, "provDagSize"), "count", "end state, hash-consed nodes")
	put("core.minimize_all_s", tr.minimizeS, "s", "MinimizeAll on T3's end state")

	// internal/upstruct
	put("upstruct.eval_ns_per_row", tr.evalNsPerRow, "ns", "Boolean Specialize, no-op sink")

	// internal/provstore
	put("provstore.save_s", tr.saveS, "s", "T3 end state")
	put("provstore.load_s", tr.loadS, "s", "")
	put("provstore.snapshot_mb", tr.snapshotMB, "MB", "")

	// internal/subscribe
	put("subscribe.respec_us_per_commit", mean(spRespec), "us", "ApplyBatch return → Manager.Sync return, 32 subscriptions")
	put("subscribe.fanout_rows_per_commit", tr.fanoutRows, "count", "")
	sub := len(w.after) - 1 // the subscription stream is on the follower when there is one
	put("subscribe.deltas", w.delta(sub, "subscriptions", "deltas"), "count", "")
	put("subscribe.frame_drops", w.delta(sub, "subscriptions", "frameDrops"), "count", "must be 0")
	put("subscribe.resyncs", w.delta(sub, "subscriptions", "resyncs"), "count", "must be 0")
	put("subscribe.rebuilds", w.delta(sub, "subscriptions", "rebuilds"), "count", "must be 0")

	// cmd/hyperprov
	put("cmd.listen_s", median(w.listenS), "s", "launch → first /healthz 200")

	// Go runtime of the leader process
	put("runtime.gc_cycles", w.delta(0, "gcCycles"), "count", "")
	put("runtime.gc_pause_p99_us", num(end, "gcPauseP99us"), "us", "since process start")
	put("runtime.heap_live_mb", num(end, "heapLiveBytes")/(1<<20), "MB", "end state")
	put("runtime.mallocs_per_txn", (w.after[0].mallocs-w.before[0].mallocs)/float64(w.timed.acked), "count", "")

	// Diagnostics, never gated.
	tail := func(name string, xs []float64) {
		p, v := tailPercentile(xs)
		put(name, v, "ms", fmt.Sprintf("p%g of %d samples", p, len(xs)))
	}
	tail("tail.write_ms", w.timed.writeMs)
	tail("tail.read_ms", w.timed.readMs)
	tail("tail.visible_ms", w.timed.visibleMs)
	put("gen.late_p99_ms", percentile(w.timed.lateMs, 99), "ms", "open-loop generator lateness")
	put("host.ref_kernel_ms", (w.refBeforeMs+w.refAfterMs)/2, "ms", fmt.Sprintf("before %.1f, after %.1f", w.refBeforeMs, w.refAfterMs))
	spanCost := emptySpanCost()
	put("harness.trace_overhead_pct", 100*float64(spanCost)*float64(len(tr.rec.spans))/(tr.wallS*float64(time.Second)), "%",
		fmt.Sprintf("%d spans × %v per span over the traced pass", len(tr.rec.spans), spanCost))
	return m
}

// delta is after − before of a /v1/stats number on server i.
func (w *wireResult) delta(i int, path ...string) float64 {
	return num(w.after[i].stats, path...) - num(w.before[i].stats, path...)
}
