package hyperprov

import (
	"context"
	"io"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/parser"
	"hyperprov/internal/provstore"
	"hyperprov/internal/upstruct"
	"hyperprov/internal/wal"
)

// --- provenance expressions (internal/core) ----------------------------

// Expr is a UP[X] provenance expression.
type Expr = core.Expr

// Annot is a basic annotation (tuple or query identifier).
type Annot = core.Annot

// AnnotKind distinguishes tuple annotations (X) from query/transaction
// annotations (P).
type AnnotKind = core.AnnotKind

// Annotation kinds.
const (
	KindTuple = core.KindTuple
	KindQuery = core.KindQuery
)

// Op enumerates UP[X] expression node kinds.
type Op = core.Op

// Expression node kinds.
const (
	OpZero  = core.OpZero
	OpVar   = core.OpVar
	OpPlusI = core.OpPlusI
	OpMinus = core.OpMinus
	OpPlusM = core.OpPlusM
	OpDotM  = core.OpDotM
	OpSum   = core.OpSum
)

// NF is a provenance expression maintained in the Theorem 5.3 normal
// form.
type NF = core.NF

// Expression constructors and annotation helpers.
var (
	Zero       = core.Zero
	Var        = core.Var
	TupleAnnot = core.TupleAnnot
	QueryAnnot = core.QueryAnnot
	PlusI      = core.PlusI
	Minus      = core.Minus
	PlusM      = core.PlusM
	DotM       = core.DotM
	Sum        = core.Sum
)

// Rewriting: Normalize applies the Figure 6 rules exhaustively
// (Theorem 5.3), Minimize the zero-axiom post-processing
// (Proposition 5.5), SimplifyZero just the zero-related axioms.
var (
	Normalize    = core.Normalize
	Minimize     = core.Minimize
	SimplifyZero = core.SimplifyZero
	ParseExpr    = core.ParseExpr
	WriteDOT     = core.WriteDOT
)

// --- relational substrate (internal/db) --------------------------------

// Kind is the type of an attribute value.
type Kind = db.Kind

// Attribute value kinds.
const (
	KindString = db.KindString
	KindInt    = db.KindInt
	KindFloat  = db.KindFloat
)

// Value is a typed attribute value; Tuple an ordered list of values.
type (
	Value     = db.Value
	Tuple     = db.Tuple
	Attribute = db.Attribute
	Schema    = db.Schema
	Database  = db.Database
	Pattern   = db.Pattern
	Term      = db.Term
	Update    = db.Update
	SetClause = db.SetClause
	// AttrCond is an inter-attribute condition of the conjunctive
	// extension beyond the hyperplane fragment (Update.WithConds).
	AttrCond = db.AttrCond
	// Transaction is an annotated sequence of hyperplane update queries.
	Transaction = db.Transaction
)

// Value and schema constructors.
var (
	S                 = db.S
	I                 = db.I
	F                 = db.F
	NewDatabase       = db.NewDatabase
	NewSchema         = db.NewSchema
	MustSchema        = db.MustSchema
	NewRelationSchema = db.NewRelationSchema
	MustRelation      = db.MustRelationSchema
)

// Pattern and update constructors.
var (
	Const        = db.Const
	AnyVar       = db.AnyVar
	VarNotEq     = db.VarNotEq
	ConstPattern = db.ConstPattern
	AllPattern   = db.AllPattern
	Insert       = db.Insert
	Delete       = db.Delete
	Modify       = db.Modify
	Keep         = db.Keep
	SetTo        = db.SetTo
)

// --- provenance engines (internal/engine) ------------------------------

// DB is the provenance engine's surface: implemented by Engine and by
// the persistent stores wrapping one. Program against DB unless you need
// engine-specific calls.
type DB = engine.DB

// Reader is the lock-free read surface shared by live engines and
// pinned time-travel views: annotation lookup, deterministic row
// streaming and the size measures, all resolved against one committed
// MVCC horizon. It is sealed: a type of another package is a Reader by
// embedding one (an engine, a view, a store), not by declaring the
// methods.
type Reader = engine.Reader

// View is a read-only database pinned at one MVCC horizon, as returned
// by DB.At: immutable no matter how many transactions commit after it
// was taken.
type View = engine.View

// Horizon-sequence helpers: EpochSeq returns the horizon pinning
// everything up to and including epoch k (pass it to DB.At); SeqEpoch
// extracts the epoch from a horizon sequence.
var (
	EpochSeq = engine.EpochSeq
	SeqEpoch = engine.SeqEpoch
)

// Engine is the provenance-tracking database: one object behind one
// write lock, with lock-free MVCC reads.
type Engine = engine.Engine

// Option configures an engine built by Open or New.
type Option = engine.Option

// Mode selects the provenance representation.
type Mode = engine.Mode

// Engine modes: the definition-following construction with no axioms,
// and the incrementally maintained normal form.
const (
	ModeNaive      = engine.ModeNaive
	ModeNormalForm = engine.ModeNormalForm
)

// Engine construction and options. Open is New returning the DB
// interface.
var (
	Open                   = engine.Open
	OpenEmpty              = engine.OpenEmpty
	New                    = engine.New
	WithCopyOnWrite        = engine.WithCopyOnWrite
	WithEagerZeroAxioms    = engine.WithEagerZeroAxioms
	WithInitialAnnotations = engine.WithInitialAnnotations
	WithLiveMatching       = engine.WithLiveMatching
	// WithAutoIndex enables the adaptive index advisor: after threshold
	// scans arrive with a column =-pinned but unindexed, the engine
	// builds that index automatically. Indexes are pure access-path
	// choices — annotations and snapshot bytes are identical either way.
	WithAutoIndex = engine.WithAutoIndex
)

// Provenance applications (Section 4 of the paper).
var (
	LiveDB              = engine.LiveDB
	BoolRestrict        = engine.BoolRestrict
	DeletionPropagation = engine.DeletionPropagation
	AbortTransactions   = engine.AbortTransactions
	AccessControl       = engine.AccessControl
	Certify             = engine.Certify
)

// Impact analysis: Dependencies extracts a tuple's input-tuple and
// transaction dependencies; BuildImpact constructs the inverted index.
type Impact = engine.Impact

var (
	Dependencies = engine.Dependencies
	BuildImpact  = engine.BuildImpact
)

// Explain renders a human-readable account of a provenance expression.
var (
	Explain       = core.Explain
	ExplainString = core.ExplainString
)

// Provenance storage (package provstore): SaveSnapshot persists an
// annotated database — a live engine or a pinned time-travel View —
// with a structurally deduplicated expression table; LoadSnapshot
// restores it; the bytes are a function of the state alone.
func SaveSnapshot(w io.Writer, e Reader) error { return provstore.SaveSnapshot(w, e) }

// LoadSnapshot restores an annotated database saved by SaveSnapshot.
// Options pass through to NewEmpty.
func LoadSnapshot(r io.Reader, opts ...Option) (*Engine, error) {
	return provstore.LoadSnapshot(r, opts...)
}

// WriteExpr and ReadExpr persist single expressions through the
// structurally deduplicating codec.
var (
	WriteExpr = provstore.WriteExpr
	ReadExpr  = provstore.ReadExpr
)

// --- durable storage (internal/wal) -------------------------------------

// Store is the persistent engine: an in-memory engine.DB fronted by a
// segmented, checksummed write-ahead log with periodic checkpoints in
// the snapshot format. Every write is logged before it is applied and
// acknowledged; OpenDir on the same directory recovers a state
// byte-identical to the acknowledged history. A store that can no
// longer reach its log degrades to read-only (writes answer
// ErrReadOnly, reads keep serving).
type Store = wal.Store

// StoreOption configures OpenDir.
type StoreOption = wal.Option

// SyncPolicy is the WAL durability level: fsync every commit, on a
// timer, or never (leave it to the OS).
type SyncPolicy = wal.SyncPolicy

// Sync policies for WithSync.
const (
	SyncAlways   = wal.SyncAlways
	SyncInterval = wal.SyncInterval
	SyncNever    = wal.SyncNever
)

// OpenDir opens (or bootstraps) the persistent store in a directory; a
// fresh directory needs WithSchema or WithInitialDatabase. The
// directory is locked against concurrent opens.
var OpenDir = wal.Open

// Store options: bootstrap inputs (mode, schema or initial database,
// engine options such as WithAutoIndex) and the sync policy. The
// operational ones — sync interval, segment size, checkpoint cadence,
// replication — are internal/wal's, where cmd/hyperprov takes them from.
var (
	WithMode            = wal.WithMode
	WithSchema          = wal.WithSchema
	WithInitialDatabase = wal.WithInitialDatabase
	WithEngineOptions   = wal.WithEngineOptions
	WithSync            = wal.WithSync
	ParseSyncPolicy     = wal.ParseSyncPolicy
)

// Typed failures of the persistent store.
var (
	ErrReadOnly = wal.ErrReadOnly
	ErrLocked   = wal.ErrLocked
	ErrCorrupt  = wal.ErrCorrupt
	ErrClosed   = wal.ErrClosed
)

// --- Update-Structures (internal/upstruct) ------------------------------

// Structure is an Update-Structure: concrete semantics for UP[X].
type Structure[T any] interface {
	upstruct.Structure[T]
}

// Set is the sorted string set of the access-control semantics; Trust
// the (score, flag) pair of the certification semantics.
type (
	Set            = upstruct.Set
	Trust          = upstruct.Trust
	TrustStructure = upstruct.TrustStructure
	BoolStructure  = upstruct.BoolStructure
	SetStructure   = upstruct.SetStructure
)

// Shared structure instances and helpers.
var (
	Bool   = upstruct.Bool
	Sets   = upstruct.Sets
	NewSet = upstruct.NewSet
	Score  = upstruct.Score
)

// Eval specializes an abstract provenance expression into a concrete
// Update-Structure under a valuation (Proposition 4.2 makes this
// sound).
func Eval[T any](e *Expr, s upstruct.Structure[T], env func(Annot) T) T {
	return upstruct.Eval(e, s, env)
}

// Specialize evaluates every stored annotation of the reader — a live
// engine or a pinned View — in the given structure, streaming results
// to f; SpecializeParallel spreads evaluation over workers goroutines
// (0 = GOMAXPROCS). f's tuple is lent for the call: a callback that
// keeps it keeps t.Clone().
func Specialize[T any](e Reader, s upstruct.Structure[T], env func(Annot) T, f func(rel string, t Tuple, v T)) {
	engine.Specialize(e, s, env, f)
}

// SpecializeParallel is Specialize with parallel row evaluation; f must
// be safe for concurrent use, and its tuple is lent as Specialize's.
// ctx cancels the pass at chunk boundaries (nil means
// context.Background()).
func SpecializeParallel[T any](ctx context.Context, e Reader, s upstruct.Structure[T], env func(Annot) T, workers int, f func(rel string, t Tuple, v T)) error {
	return engine.SpecializeParallel(ctx, e, s, env, workers, f)
}

// BoolRestrictParallel is BoolRestrict with parallel evaluation and
// context cancellation.
var BoolRestrictParallel = engine.BoolRestrictParallel

// --- query front ends (internal/parser) ---------------------------------

// Parsers for the SQL fragment of Section 2 and the paper's
// datalog-like notation.
var (
	ParseSQLStatement = parser.ParseSQLStatement
	ParseSQLLog       = parser.ParseSQLLog
	ParseDatalogQuery = parser.ParseDatalogQuery
	ParseDatalogLog   = parser.ParseDatalogLog
)
