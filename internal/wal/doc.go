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
// Every log record is framed as | length u32 LE | CRC32C u32 LE | payload
// |, the payload starting with its type byte; a group commit of two or
// more records is one packed, deflated frame when that is smaller
// (pack.go), and the readers expand it, so an LSN names a record. The
// replication stream uses the same frames, one record each (frame.go).
// Appends go through a sync policy (always | interval | never); a batch
// group-commits a chunk under one fsync. A checkpoint pins the engine's
// view at the horizon under the store's lock and encodes it with the lock
// released. A fresh directory is bootstrapped from a lazily opened row
// source whose checkpoint is the store's first; an existing one never
// opens the source.
//
// Every logged record takes one MVCC epoch, its LSN + 1, and nothing
// unlogged takes one, so an idle store's horizon is at epoch LSN() on
// the leader and on every follower, across restarts and resyncs.
//
// Recovery on Open loads the newest loadable checkpoint at epoch n, its
// LSN, and replays the log suffix: damage at the tail of the final
// segment (a torn write from the crash) is truncated away, damage
// anywhere else is ErrCorrupt, since skipping it would replay another
// history than the one acknowledged. After an append or fsync failure
// the store degrades to read-only (ErrReadOnly) and keeps serving reads.
// DESIGN.md "Durability & recovery" has the details and crash windows.
package wal
