// Package admission is the server's overload-protection toolbox:
// per-class concurrency limits with small bounded wait queues, typed
// load-shed errors and a three-state health summary (ok → degraded →
// overloaded).
//
// The controller divides work into classes (cheap point reads,
// expensive materializations, writes, long-lived streams) so that
// saturation in one class cannot starve the others: a storm of what-if
// queries queues and then sheds inside its own class while point reads
// and writes keep flowing. Shedding is deadline-aware — a request whose
// remaining context deadline could not cover both the queue wait and a
// minimum service time is shed immediately rather than parked to time
// out — and every shed carries a retry hint the HTTP layer renders as
// a Retry-After header.
//
// The health state is deliberately coarse: load balancers only need to
// know "keep sending" (ok), "prefer another node" (degraded: queues
// forming, a read-only WAL, a lagging replica) or "drain me"
// (overloaded: the controller is actively shedding). The server folds
// its own signals (WAL degradation, replication lag) into the
// controller's view; see internal/server.
package admission
