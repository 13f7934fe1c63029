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
// or hundredths where that is exact. Version 3 writes a child node as
// its distance back, a variable prefix<i> by its index in a dictionary
// of at most 64 prefixes of at most 32 bytes (one byte when it follows
// the previous variable of its kind) and a row repeating the previous
// row's annotation as one tag; loading it mints each run of 16 or more
// such variables as range leaves through one core.Vars call, and a
// shorter one name by name (snapshot.go and codec.go have the layout, DESIGN.md
// §3.14 the byte-level table). The stored support keeps every dead
// tuple, so the file grows with history and is what a data directory
// holds. Earlier versions are read and no longer written: version 2 is
// version 3 with absolute child ids and every variable by name, read by
// the same row-stream reader; version 1 is a whole node table followed
// by rows written out value by value.
package provstore
