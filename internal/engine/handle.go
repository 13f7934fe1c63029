package engine

import (
	"context"
	"sync"
	"sync/atomic"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
)

// Handle is "the engine being served": an atomic pointer to the *Engine
// that answers now, held by whatever outlives a single engine — a
// wal.Store across recovery and follower resyncs, a wal.Follower reading
// through its store, a server across snapshot loads, the subscription
// manager across all of them. It answers the read surface from the
// engine it holds at the moment of the call, owns the commit hook and
// installs it on every engine it is given, and replaces the engine in
// one way: Swap. The normal form is per-row local (Theorem 5.3), so
// which wrapper answered a read changes no annotation, stream order or
// snapshot byte.
//
// A Handle has no write method: a type that embeds one promotes reads
// only, never an unlogged write into a store nor any write into a
// follower. The zero value is empty; Swap gives it its first engine.
type Handle struct {
	eng   atomic.Pointer[Engine]
	swaps atomic.Uint64

	// mu orders event delivery against Swap and SetCommitHook: once the
	// subscriber has heard the CommitReset announcing a replacement it
	// hears nothing more from the engine replaced, even one that is still
	// committing.
	mu   sync.Mutex
	hook CommitHook
}

// Engine returns the engine being served. Lock-free; a caller that needs
// one engine across several calls (a request handler) resolves it once.
func (h *Handle) Engine() *Engine { return h.eng.Load() }

// Swaps counts the engines the handle has been given, the first included.
func (h *Handle) Swaps() uint64 { return h.swaps.Load() }

// SetCommitHook installs (or, with nil, removes) the commit-event
// subscriber on the engine being served and on every engine a later Swap
// brings; see CommitHook for the contract.
func (h *Handle) SetCommitHook(hook CommitHook) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.hook = hook
	if e := h.Engine(); e != nil {
		h.install(e)
	}
}

// install points e's commit events at the subscriber; mu is held. An
// engine without a hook collects no event rows, so nil is not wrapped.
func (h *Handle) install(e *Engine) {
	if h.hook == nil {
		e.SetCommitHook(nil)
		return
	}
	e.SetCommitHook(func(ev CommitEvent) {
		h.mu.Lock()
		defer h.mu.Unlock()
		if h.hook != nil && h.Engine() == e {
			h.hook(ev)
		}
	})
}

// Swap publishes e as the engine being served: the hook moves to it,
// readers through the handle answer from it from here on (views pinned
// earlier keep reading the engine they were taken from), and the
// subscriber hears one CommitReset at e's horizon — rebuild from there.
// Callers serialise Swap against their own writes to the engine replaced.
func (h *Handle) Swap(e *Engine) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.install(e)
	if old := h.eng.Swap(e); old != nil && old != e {
		old.SetCommitHook(nil)
	}
	h.swaps.Add(1)
	if h.hook != nil {
		h.hook(CommitEvent{Kind: CommitReset, Epoch: e.Horizon()})
	}
}

// --- the read surface, from the engine held at the moment of the call ---

func (h *Handle) view() view          { return h.Engine().view() }
func (h *Handle) Mode() Mode          { return h.Engine().Mode() }
func (h *Handle) Schema() *db.Schema  { return h.Engine().Schema() }
func (h *Handle) Relations() []string { return h.Engine().Relations() }

func (h *Handle) Annotation(rel string, t db.Tuple) *core.Expr { return h.Engine().Annotation(rel, t) }
func (h *Handle) NF(rel string, t db.Tuple) core.NF            { return h.Engine().NF(rel, t) }
func (h *Handle) EachRow(rel string, f func(t db.Tuple, ann *core.Expr)) {
	h.Engine().EachRow(rel, f)
}
func (h *Handle) Rows(f func(rel string, t db.Tuple, ann *core.Expr)) { h.Engine().Rows(f) }
func (h *Handle) Select(rel string, sel db.Pattern) ([]db.Tuple, error) {
	return h.Engine().Select(rel, sel)
}

func (h *Handle) NumRows() int       { return h.Engine().NumRows() }
func (h *Handle) SupportSize() int   { return h.Engine().SupportSize() }
func (h *Handle) ProvSize() int64    { return h.Engine().ProvSize() }
func (h *Handle) ProvDAGSize() int64 { return h.Engine().ProvDAGSize() }

// At pins a view of the engine being served. Views read no log: under a
// persistent store the history they can pin starts at the checkpoint the
// engine was recovered (or resynced) from, its restore epoch; every
// record replayed after it is an epoch of its own, its LSN + 1.
func (h *Handle) At(k uint64) View { return h.Engine().At(k) }
func (h *Handle) Horizon() uint64  { return h.Engine().Horizon() }
func (h *Handle) WaitHorizon(ctx context.Context, k uint64) error {
	return h.Engine().WaitHorizon(ctx, k)
}
func (h *Handle) MVCCStats() MVCCStats       { return h.Engine().MVCCStats() }
func (h *Handle) IndexStats() []IndexInfo    { return h.Engine().IndexStats() }
func (h *Handle) PlannerStats() PlannerStats { return h.Engine().PlannerStats() }
