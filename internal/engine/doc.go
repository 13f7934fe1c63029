// Package engine executes annotated hyperplane update transactions over
// annotated databases, implementing the provenance-aware semantics of
// Section 3.1 of Bourhis, Deutch, Moskovitch (SIGMOD 2020).
//
// The engine runs in one of two modes:
//
//   - ModeNaive follows the provenance definitions literally, building
//     raw UP[X] expressions with no simplification (the paper's "No
//     axioms" configuration). Sub-expressions reused by modifications
//     are deep-copied by default, reproducing the time and memory
//     blowup of Section 5.1 (configurable via WithCopyOnWrite for the
//     shared-representation ablation).
//
//   - ModeNormalForm maintains every tuple's provenance in the normal
//     form of Theorem 5.3, updated incrementally per query by the
//     rewrite rules of Figure 6 and frozen at transaction boundaries
//     (the paper's "Normal form" configuration). Provenance stays
//     linear in the database size and transaction length.
//
// Following Section 3.1 and the discussion in Section 6.2, deleted and
// modified tuples are not removed: a tuple is in the support of a
// relation iff its annotation is not syntactically 0, and subsequent
// queries are applied to all supported tuples — the axioms guarantee
// that logically deleted tuples contribute nothing. The plain engine of
// package db defines the ground-truth set semantics, which must (and,
// per the package tests, does) coincide with the all-true Boolean
// valuation of either provenance mode.
//
// There is one engine type, and it is one object: Engine owns the rows,
// their versions, the indexes and the scan planner, the epochs, the read
// horizon and the commit events. Writers serialize on one lock; a view
// is the engine pinned at a horizon, read without one (indexes and a
// batch's shared column passes serve the writer only). DB and View stay
// interfaces because the persistent stores of package wal implement and
// forward them.
//
// Two doors lead to the storage underneath, and both are checked. Every
// update applies through Engine.ApplyTransaction, which admits what
// db.Update.Validate admits — the hyperplane fragment: arity, kinds, no
// repeated variable — and fails the transaction with ErrBadTuple
// otherwise, its epoch committed and its locks released as for any failed
// query. Every read goes through a pinned view: Reader is sealed by an
// unexported method only the view, the Engine and the Handle declare, so
// a Reader from another package embeds one of them and the valuation
// passes walk native rows for whatever they are handed.
//
// An engine starts from rows through one bulk path: Load takes a
// db.RowSource — a Database's rows for New, CSV batches for the server —
// names the rows t0, t1, … in the order delivered and sizes its tables
// once from the announced counts; Restore is its counterpart for rows
// that bring their annotations (a snapshot). Either source runs on a
// goroutine of its own beside the stores (pipe). Boot records where the
// start-up went.
//
// Specialization helpers (Specialize, LiveDB, DeletionPropagation,
// AbortTransactions, AccessControl, Certify) map the symbolic
// provenance into concrete Update-Structures for the applications of
// Section 4.
package engine
