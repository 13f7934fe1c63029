package engine

// Commit events are the engine's change-notification bus: every
// committed write epoch — a transaction, a snapshot restore, a
// minimization pass, a logged index build or drop — is announced to an
// installed CommitHook exactly once, in epoch order, immediately after
// the epoch became visible to readers. Subscribers (internal/subscribe)
// use the events to maintain registered what-ifs incrementally: Theorem
// 5.3 locality guarantees a row's normal form depends only on that row's
// annotation and the query annotation, so re-specializing exactly the
// rows named by an event reproduces a from-scratch recompute at the
// event's horizon.

// CommitKind says what kind of write epoch a CommitEvent announces.
type CommitKind uint8

const (
	// CommitTxn is a committed transaction (ApplyTransaction / ApplyAll /
	// ApplyBatch).
	CommitTxn CommitKind = iota
	// CommitRestore is a RestoreRow epoch (snapshot loading).
	CommitRestore
	// CommitMinimize is a MinimizeAll pass (annotations may have been
	// rewritten to smaller equivalent forms).
	CommitMinimize
	// CommitIndex is a logged index build or drop, naming no row.
	CommitIndex
	// CommitReset announces that the database identity changed wholesale
	// (engine swap behind a wal.Store, e.g. a follower resync) or that an
	// epoch ran before the hook was installed: Rows is empty and
	// subscribers must rebuild from scratch at Epoch.
	CommitReset
)

// String names the kind for logs and frames.
func (k CommitKind) String() string {
	switch k {
	case CommitTxn:
		return "txn"
	case CommitRestore:
		return "restore"
	case CommitMinimize:
		return "minimize"
	case CommitIndex:
		return "index"
	case CommitReset:
		return "reset"
	default:
		return "unknown"
	}
}

// RowRef names one stored row: its relation and its position in the
// relation's table. Rows never move or change values: RowTuple builds
// the tuple through any view the row is visible in.
type RowRef struct {
	Rel string
	Pos uint32
}

// CommitEvent describes one committed write epoch. Rows lists every row
// the epoch touched (created, annotated, deleted or rewritten), each at
// most once; reading the database At(Epoch) observes exactly the state
// the event describes. Events arrive in strictly increasing Epoch
// order per engine; under a persistent store a record's epoch is its
// LSN + 1 on every replica. Rows is borrowed: see CommitHook.
type CommitEvent struct {
	Epoch uint64
	Kind  CommitKind
	Label string // transaction label (CommitTxn only)
	Rows  []RowRef
}

// CommitHook receives commit events. Hooks run on the committing
// goroutine with engine-internal locks held: they must return quickly
// and must never block or call back into the engine's write path
// (reads are fine — they are lock-free). A hook that needs to do real
// work hands the event to its own goroutine (see subscribe.Manager).
//
// ev.Rows is valid for the duration of the call only: it is a buffer the
// engine fills once per epoch, wipes when the hook returns and reuses
// for the next epoch, so that a hook with nothing to do costs the write
// path nothing. A hook that keeps rows past its return copies the refs,
// which stay valid, as Label does; it reads a row's values with
// RowTuple, into a buffer it owns. Nothing else of the transaction
// behind an event
// reaches a hook: its update lists and patterns are only borrowed from
// the caller of Apply (db.Transaction), who may recycle them as soon as
// Apply returns.
type CommitHook func(ev CommitEvent)
