// Package wal is the durability subsystem: a segmented, checksummed
// write-ahead log plus checkpointing and crash recovery around the
// provenance engine. A Store (and a Follower reading through one) embeds
// the engine.Handle it serves the engine through — its whole read surface
// and its commit hook; recovery and a follower resync Swap the engine.
//
// The paper makes durability cheap here: the Theorem 5.3 normal form is
// maintained incrementally per transaction (§5), so the log record for
// one applied transaction is just the transaction itself in a canonical
// binary encoding, and replay is exactly re-running ApplyTransaction —
// landing bit-identical annotations and snapshot bytes (the package's
// differential tests prove recovered state equals a never-crashed
// oracle byte for byte, in either mode).
//
// Layout of a data directory:
//
//	META                     mode, schema, bootstrap flag (written once)
//	LOCK                     advisory lock, held while the store is open
//	wal-%016x.seg            log segments; the hex name is the LSN of the
//	                         segment's first record
//	checkpoint-%016x.ckpt    provstore snapshots, each one gzip member
//	                         (older builds wrote them bare; both load); the
//	                         hex name is the LSN the checkpoint covers
//	                         (records < LSN are in it)
//
// Every log record is framed as
//
//	| length uint32 LE | CRC32C uint32 LE | payload |
//
// where the CRC covers the payload, which is never empty: every record
// starts with its type byte. A group commit of two or more records is
// one packed frame when that is smaller (pack.go): its payload is the
// type byte 0x80, the record count, the body's size and the body — the
// records' lengths and bytes — deflated at the checkpoint's level. The
// readers expand it, so an LSN names a record, a torn packed frame loses
// its whole (unacknowledged) group, one that fails its CRC yet ends as
// written is damage, not a tear, and one that is whole but does not
// unpack is a corrupt record. The replication stream uses the same
// frames, one record each, and one writer and one reader (frame.go)
// serve both. Appends go through a configurable sync policy (always |
// interval | never); batched applies group-commit a whole chunk under a
// single fsync.
//
// A checkpoint is a pinned view, in three steps. Under the store's lock:
// note the LSN, rotate so that the live segment starts there, pin the
// engine's view at the horizon (every engine write is versioned, so the
// view is the state at that LSN and stays it). With the lock released,
// writers appending and applying meanwhile: encode the view into
// checkpoint.tmp through the store's gzip writer, fsync, rename to
// checkpoint-<LSN>. Under the lock again: publish the checkpoint LSN and
// delete the checkpoints and log segments it supersedes, except segments
// a replication stream still reads. Checkpoint runs the three in its caller; the automatic cadence
// runs the first in the write that crosses the threshold and the rest on
// a goroutine, one checkpoint at a time. DESIGN.md "Durability &
// recovery" has the crash windows; recovery removes a dead *.tmp.
//
// A fresh directory is bootstrapped from a lazily opened row source
// (WithInitialSource; WithInitialDatabase adapts a database in memory):
// engine.Load builds the engine straight from the rows — CSV batches with
// no db.Database in between, when cmd/hyperprov supplies them — and their
// checkpoint is the store's first. An existing directory never opens the
// source: a restart neither reads nor needs what it was seeded from. The
// engine's Boot record says where either start-up went.
//
// Recovery on Open loads the newest loadable checkpoint (a gzip member
// loads only if its CRC-32 and length match and nothing follows it) and
// replays the log suffix, stopping cleanly at the first damaged record: damage at
// the tail of the final segment (a torn or short write from the crash)
// is truncated away, while damage in the middle of the log — a corrupt
// record with a complete valid record right after it, or a broken
// segment chain — is a
// hard ErrCorrupt, because silently skipping it would replay a
// different history than the one that was acknowledged.
//
// After a persistent append/fsync failure the store degrades to
// read-only instead of crashing: writes fail fast with ErrReadOnly
// (which the HTTP layer maps to a typed 503 envelope) while reads keep
// serving the in-memory state.
package wal
