package server

import (
	"net/http"

	"hyperprov/internal/core"
	"hyperprov/internal/engine"
	"hyperprov/internal/wal"
)

// statsSections are the collectors of /v1/stats, each contributing one
// group of fields, in collection order. The response stays one flat
// JSON object (plus the nested wal / replication / subscriptions
// blocks), so the list exists for composition, not response shape: each
// concern owns its collector, and a new subsystem adds one instead of
// growing a monolith. Field names are part of the stable API —
// documented in DESIGN.md and depended on by clients and tests; never
// rename, only add — and disjoint between collectors by construction.
var statsSections = []func(s *Server, e engine.DB, out map[string]any){
	collectEngineStats,
	collectBootStats,
	collectInternStats,
	collectMVCCStats,
	collectPlannerStats,
	collectWALStats,
	collectReplicationStats,
	collectSubscriptionStats,
	collectAdmissionStats,
	collectWhatifStats,
	collectIngestStats,
	collectMemoryStats,
}

// collectEngineStats reports the size measures: provSize is the
// paper's per-occurrence tree count (Fig. 7b/8b), provDagSize the
// number of distinct hash-consed nodes backing this engine's
// annotations (the memory actually held). engineGeneration counts
// snapshot-load swaps (see Server.EngineGeneration).
func collectEngineStats(s *Server, e engine.DB, out map[string]any) {
	out["mode"] = e.Mode().String()
	out["rows"] = e.NumRows()
	out["support"] = e.SupportSize()
	out["provSize"] = e.ProvSize()
	out["provDagSize"] = e.ProvDAGSize()
	out["engineGeneration"] = s.EngineGeneration()
}

// collectBootStats reports where the served engine's start-up went (see
// engine.BootStats): the stage table of a cold start.
func collectBootStats(s *Server, e engine.DB, out map[string]any) {
	out["boot"] = engine.BootOf(e)
}

// collectInternStats reports the process-global intern table counters.
func collectInternStats(s *Server, e engine.DB, out map[string]any) {
	ist := core.InternStats()
	out["internNodes"] = ist.Nodes
	out["internHits"] = ist.Hits
	out["internMisses"] = ist.Misses
}

// collectMVCCStats reports the committed read horizon (what a reader
// entering now would pin) and version-storage volume.
func collectMVCCStats(s *Server, e engine.DB, out map[string]any) {
	ms := e.MVCCStats()
	out["mvccHorizonEpoch"] = ms.HorizonEpoch
	out["mvccEpochs"] = ms.Epochs
	out["mvccVersions"] = ms.Versions
}

// collectPlannerStats reports scan-resolution counters and the live
// index count.
func collectPlannerStats(s *Server, e engine.DB, out map[string]any) {
	ps := e.PlannerStats()
	out["plannerFullScans"] = ps.FullScans
	out["plannerIndexScans"] = ps.IndexScans
	out["plannerPointLookups"] = ps.PointLookups
	out["plannerAutoBuilds"] = ps.AutoBuilds
	out["plannerBatchPasses"] = ps.BatchPasses
	out["plannerBatchScans"] = ps.BatchScans
	out["plannerRowsScanned"] = ps.RowsScanned
	out["plannerRowsMatched"] = ps.RowsMatched
	out["indexes"] = len(e.IndexStats())
}

// collectWALStats reports the durability counters of a persistent
// store or a follower's local WAL; absent on in-memory engines.
func collectWALStats(s *Server, e engine.DB, out map[string]any) {
	switch st := e.(type) {
	case *wal.Store:
		out["wal"] = st.Stats()
	case *wal.Follower:
		out["wal"] = st.WALStats()
	}
}

// collectReplicationStats reports a follower's lag block; absent on
// leaders and in-memory engines (tests depend on the key being
// missing, not null-valued, there).
func collectReplicationStats(s *Server, e engine.DB, out map[string]any) {
	if fl, ok := e.(*wal.Follower); ok {
		out["replication"] = fl.ReplicaStats()
	}
}

// collectSubscriptionStats reports the live-subscription manager's
// fanout and lag counters (see subscribe.Stats for field docs).
func collectSubscriptionStats(s *Server, e engine.DB, out map[string]any) {
	out["subscriptions"] = s.subs.StatsSnapshot()
}

// collectAdmissionStats reports the load-shedding controller's
// per-class counters plus the folded health state (the same three
// states /readyz answers with: ok, degraded, overloaded).
func collectAdmissionStats(s *Server, e engine.DB, out map[string]any) {
	out["admission"] = s.adm.StatsSnapshot()
	out["health"] = s.health(e).String()
}

// handleStats serves /v1/stats by running every registered section
// against the engine captured once at entry.
func (s *Server) handleStats(w http.ResponseWriter, req *http.Request) {
	e := s.Engine()
	stats := make(map[string]any, 32)
	for _, collect := range statsSections {
		collect(s, e, stats)
	}
	writeJSON(w, http.StatusOK, stats)
}
