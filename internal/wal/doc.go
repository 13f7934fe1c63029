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
// oracle byte for byte, for any shard count and either mode).
//
// Layout of a data directory:
//
//	META                     mode, schema, bootstrap flag (written once)
//	LOCK                     advisory lock, held while the store is open
//	wal-%016x.seg            log segments; the hex name is the LSN of the
//	                         segment's first record
//	checkpoint-%016x.ckpt    provstore snapshots; the hex name is the LSN
//	                         the checkpoint covers (records < LSN are in it)
//
// Every log record is framed as
//
//	| length uint32 LE | CRC32C uint32 LE | payload |
//
// where the CRC covers the payload. Appends go through a configurable
// sync policy (always | interval | never); batched applies group-commit
// a whole chunk under a single fsync. Checkpoints are written to a temp
// file, fsynced, and atomically renamed; log segments wholly covered by
// a successful checkpoint are deleted.
//
// Recovery on Open loads the newest loadable checkpoint and replays the
// log suffix, stopping cleanly at the first damaged record: damage at
// the tail of the final segment (a torn or short write from the crash)
// is truncated away, while damage in the middle of the log — a corrupt
// record with intact records after it, or a broken segment chain — is a
// hard ErrCorrupt, because silently skipping it would replay a
// different history than the one that was acknowledged.
//
// After a persistent append/fsync failure the store degrades to
// read-only instead of crashing: writes fail fast with ErrReadOnly
// (which the HTTP layer maps to a typed 503 envelope) while reads keep
// serving the in-memory state.
package wal
