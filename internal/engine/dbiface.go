package engine

import (
	"context"
	"errors"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
)

// Sentinel errors for the conditions callers routinely branch on (the
// HTTP layer maps them to 404/400). Wrapped with %w throughout the
// package; test with errors.Is.
var (
	// ErrUnknownRelation reports an operation against a relation the
	// schema does not contain.
	ErrUnknownRelation = errors.New("unknown relation")
	// ErrBadTuple reports a tuple that does not conform to its relation
	// schema.
	ErrBadTuple = errors.New("bad tuple")
	// ErrUnknownAttribute reports an index operation naming an attribute
	// the relation schema does not contain.
	ErrUnknownAttribute = errors.New("unknown attribute")
	// ErrUnknownIndex reports a DropIndex against an index that does not
	// exist.
	ErrUnknownIndex = errors.New("unknown index")
)

// Reader is the provenance-usage read side shared by the live engine,
// pinned views and the persistent wrappers around them: annotation
// lookup, deterministic row streaming and the size measures. All methods
// resolve against one committed MVCC horizon — the newest one for a live
// engine, the pinned one for a View — lock-free, so they never block
// behind (or stall) a concurrent ApplyAll. The streaming methods
// (EachRow, Rows) visit rows in the same deterministic order on every
// implementation: relations in schema order, rows in insertion order.
// They lend the tuple they pass: it is built from the word columns into
// a buffer the pass reuses, so a callback that keeps one keeps a Clone.
//
// The interface is sealed: its unexported method is declared by the
// pinned view, the Engine and the Handle only, so another package has a
// Reader by embedding one of them (wal.Store and wal.Follower embed a
// Handle) or an interface holding one, never by writing the methods out.
// Every Reader therefore is a pinned view of an engine, and the
// valuation passes (Specialize*, BoolRestrict*, LiveChunks) and BootOf
// walk that view's rows directly: there is no second, generic
// implementation of them to keep in step with the first.
type Reader interface {
	// view pins the reader: a view answers itself, an engine (or the
	// handle holding one) its view at the committed horizon.
	view() view

	Mode() Mode
	Schema() *db.Schema
	Relations() []string

	Annotation(rel string, t db.Tuple) *core.Expr
	NF(rel string, t db.Tuple) core.NF
	EachRow(rel string, f func(t db.Tuple, ann *core.Expr))
	Rows(f func(rel string, t db.Tuple, ann *core.Expr))

	// Select returns the tuples the hyperplane selection pattern matches
	// at the reader's horizon, in insertion order: the rows visible there
	// are walked with per-row version resolution. No index is consulted;
	// indexes serve the write path only.
	Select(rel string, sel db.Pattern) ([]db.Tuple, error)

	NumRows() int
	SupportSize() int
	ProvSize() int64
	ProvDAGSize() int64
}

// View is a read-only database pinned at one epoch, as returned by
// DB.At: its reads are immutable — byte-identical no matter how many
// transactions commit after the view was taken — and lock-free. AsOf
// reports the pinned epoch.
type View interface {
	Reader
	AsOf() uint64
}

// DB is the engine's surface as servers and applications program
// against it: the Reader surface at the live horizon, annotated
// transaction application, and MVCC time travel. *Engine is the one
// implementation in this package; it stays an interface because the
// persistent stores (wal.Store, wal.Follower) implement it too: their
// reads are the methods of the Handle they embed, their writes their
// own — logged, or refused.
//
// Writes observe transaction granularity: a transaction's effects
// publish atomically to the read horizon at commit, and readers pin
// that horizon on entry, so they see the database either before or
// after a transaction, never mid-way.
type DB interface {
	Reader

	// The Apply methods borrow their transactions for the call: an
	// implementation keeps nothing of one past the return but its Label
	// (db.Transaction), so a caller may build the rest in memory it
	// recycles (db.Builder).
	ApplyTransaction(t *db.Transaction) error
	ApplyAll(ctx context.Context, txns []db.Transaction) error
	// ApplyBatch is ApplyAll reporting the durably applied prefix: on a
	// cancelled or failed batch, txns[:applied] must not be replayed and
	// txns[applied:] may be (WAL recovery and replication resume there).
	ApplyBatch(ctx context.Context, txns []db.Transaction) (applied int, err error)
	RestoreRow(rel string, t db.Tuple, ann *core.Expr) error

	// MVCC time travel: At pins a read-only view as of epoch k (clamped
	// to the committed Horizon), Horizon reports the newest committed
	// epoch, and MVCCStats the version-storage counters.
	At(k uint64) View
	Horizon() uint64
	// WaitHorizon blocks until the committed horizon reaches epoch k or
	// ctx is done — the notification edge replication followers and
	// fenced reads build on instead of polling Horizon.
	WaitHorizon(ctx context.Context, k uint64) error
	MVCCStats() MVCCStats

	// Secondary indexing: indexes are pure access-path choices (the
	// Theorem 5.3 normal form is per-row local, so results are
	// byte-identical with or without them). Any number of per-column
	// indexes may coexist per relation; IndexStats lists them and
	// PlannerStats reports how scans were resolved.
	BuildIndex(rel, attr string) error
	DropIndex(rel, attr string) error
	IndexStats() []IndexInfo
	PlannerStats() PlannerStats

	// SetCommitHook installs (or, with nil, removes) the change-
	// notification subscriber: one CommitEvent per committed write
	// epoch, in epoch order, delivered after the epoch became readable.
	// See CommitHook for the (non-blocking) contract; internal/subscribe
	// builds the live-subscription surface on top of this.
	SetCommitHook(CommitHook)

	MinimizeAll(ctx context.Context) (int64, error)
}

var _ DB = (*Engine)(nil)

// Open is New returning the DB interface.
func Open(mode Mode, initial *db.Database, opts ...Option) DB { return New(mode, initial, opts...) }

// OpenEmpty is NewEmpty returning the DB interface.
func OpenEmpty(mode Mode, schema *db.Schema, opts ...Option) DB {
	return NewEmpty(mode, schema, opts...)
}
