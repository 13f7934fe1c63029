// Package provstore persists annotated databases: the storage half of
// the paper's "efficient generation and storage of provenance"
// (Sections 5–6).
//
// The central piece is a binary codec for UP[X] expressions that writes
// the expression as a node table in topological order with
// varint-encoded child references. Structurally identical
// sub-expressions are written once, so the on-disk size is the DAG size
// of the expression set rather than its tree size — for the naive
// construction, whose trees can be exponentially large while their
// distinct-subterm count stays polynomial (Proposition 5.1 builds the
// same sub-expressions over and over), this is an exponential storage
// saving on top of the in-memory representation, and for normal-form
// provenance it deduplicates the bases shared between a tuple's
// versions.
//
// On top of the codec, SaveSnapshot and LoadSnapshot write and read
// whole annotated databases (schema, every stored row including
// tombstones, one expression reference per row), restoring into either
// engine mode in one restore epoch. A snapshot is one pass over a pinned
// view, streamed: each row follows the table nodes it is first to need,
// and is written against the row before it — a mask of the columns that
// repeat, integer deltas, strings by dictionary id, floats as integers
// or hundredths where that is exact (snapshot.go has the layout,
// DESIGN.md §3.14 the byte-level table). The stored support keeps every
// dead tuple, so the file grows with history and is what a data
// directory holds; version 1 of the format, a whole node table followed
// by rows written out value by value, is read and no longer written.
package provstore
