// Package server exposes a provenance engine over HTTP/JSON: the
// provenance-usage operations of Section 4 of the paper (tuple
// annotation and explanation, the live database, deletion-propagation
// and transaction-abortion what-ifs), snapshot save/load, and ingestion
// of SQL or datalog transaction logs.
//
// Concurrency model: read endpoints pin the engine's committed MVCC
// horizon at entry and run lock-free against its version chains, so
// they never block behind (or stall) /v1/ingest — readers observe the
// database at batch-commit granularity, never mid-transaction, and a
// long read streams one consistent epoch snapshot end to end; there is
// no reader-visible engine lock. The endpoints that time-travel accept
// ?as_of=N to run against the database as of epoch N. The server holds
// no lock of its own either: an in-memory engine is served through an
// engine.Handle that each request resolves once at entry, so loading a
// snapshot over POST /v1/snapshot is one Swap of the served engine while
// in-flight requests keep streaming from the one they started with (a
// persistent store or follower swaps engines through its own handle).
// The subscription manager listens on the same handle and hears the swap
// as a CommitReset. Every route, streams included, is mounted on one mux.
//
// The database-shaped answers (/v1/db and the what-ifs) are evaluated
// and JSON-encoded in one chunked parallel pass over the pinned view —
// see livejson.go. Every response is written straight to the
// connection, and every plain route is bounded by one mechanism: the
// request context expires at the deadline and the connection's write
// deadline follows it (Server.withDeadline). The stream routes
// (/v1/subscribe, /v1/replication/stream) live until their client goes.
//
// Every endpoint is instrumented with expvar-compatible counters
// (<endpoint>.requests, <endpoint>.errors, <endpoint>.latency_us), which
// with a few event counters (panics, aborted snapshot saves, stream
// requests and drops) are served at GET /v1/metrics and publishable into
// the process-global expvar namespace (see Server.PublishExpvar) for
// /debug/vars. Subsystem state is rendered once, by GET /v1/stats.
package server
