package engine

import (
	"context"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
	"hyperprov/internal/upstruct"
)

// Specialize evaluates every stored annotation in the given
// Update-Structure under the valuation env and streams the results to f
// (including tombstone rows, whose values typically evaluate to the
// structure's zero). Rows stream in deterministic order: relations in
// schema order, rows in insertion order — identical to EachRow — never
// map order. f's tuple is lent for the call: a callback that keeps it
// keeps t.Clone(). This is the generic
// "provenance usage" operation of Section 6: all applications below are
// thin wrappers over it, sound by Proposition 4.2. It is
// SpecializeParallel with one worker, the chunk pipeline on the caller's
// goroutine alone: the MVCC horizon is pinned once on entry (the view's
// own when e is a View, the served engine's behind a wal.Store or
// wal.Follower), so the streamed rows form one consistent epoch
// snapshot, lock-free against concurrent writers.
func Specialize[T any](e Reader, s upstruct.Structure[T], env upstruct.Env[T], f func(rel string, t db.Tuple, v T)) {
	_ = SpecializeParallel(context.Background(), e, s, env, 1, f) // the background context never ends
}

// BoolRestrict materializes the database selected by a Boolean
// valuation: the result contains exactly the tuples whose provenance
// evaluates to true — BoolRestrictParallel with one worker.
func BoolRestrict(e Reader, env upstruct.Env[bool]) *db.Database {
	out, _ := BoolRestrictParallel(context.Background(), e, env, 1) // the background context never ends
	return out
}

// LiveDB returns the database under the all-true valuation — the set
// semantics of the transactions actually executed. It must equal the
// result of the plain engine on the same input (the package tests use
// this as the ground-truth oracle).
func LiveDB(e Reader) *db.Database {
	return BoolRestrict(e, func(core.Annot) bool { return true })
}

// DeletionPropagation answers the Section 4.1 what-if question "what
// would the result be had these input tuples not been in the database?"
// by assigning false to the given tuple annotations and true elsewhere —
// without re-running the transactions.
func DeletionPropagation(e Reader, deleted ...core.Annot) *db.Database {
	dead := make(map[core.Annot]bool, len(deleted))
	for _, a := range deleted {
		dead[a] = false
	}
	return BoolRestrict(e, upstruct.MapEnv(dead, true))
}

// AbortTransactions answers "what would the result be had these
// transactions been aborted?" by assigning false to the given
// transaction labels.
func AbortTransactions(e Reader, labels ...string) *db.Database {
	dead := make(map[core.Annot]bool, len(labels))
	for _, l := range labels {
		dead[core.QueryAnnot(l)] = false
	}
	return BoolRestrict(e, upstruct.MapEnv(dead, true))
}

// AccessControl evaluates the access-control semantics of Section 4.1:
// env assigns each tuple and transaction annotation its set of
// credentials (e.g. country names), and the result maps every visible
// tuple to the credentials that may see it. Tuples whose credential set
// comes out empty are omitted.
func AccessControl(e Reader, env upstruct.Env[upstruct.Set]) map[string]map[string]upstruct.Set {
	out := make(map[string]map[string]upstruct.Set)
	Specialize[upstruct.Set](e, upstruct.Sets, env, func(rel string, t db.Tuple, v upstruct.Set) {
		if v.Len() == 0 {
			return
		}
		m := out[rel]
		if m == nil {
			m = make(map[string]upstruct.Set)
			out[rel] = m
		}
		// The one remaining Key() construction in the engine: the API's
		// result shape is keyed by the durable string encoding. Every
		// lookup path (table probes, routing, Annotation/NF) runs on
		// fingerprints and never rebuilds keys.
		m[t.Key()] = v
	})
	return out
}

// Certify evaluates the certification semantics of Section 4.1 with
// minimal trust level l: env assigns raw trust scores to annotations,
// and the result is the database of tuples certified at that level.
func Certify(e Reader, l float64, env upstruct.Env[upstruct.Trust]) *db.Database {
	st := upstruct.TrustStructure{L: l}
	out := db.NewDatabase(e.Schema())
	Specialize[upstruct.Trust](e, st, env, func(rel string, t db.Tuple, v upstruct.Trust) {
		if st.Trusted(v) {
			_ = out.InsertTuple(rel, t.Clone()) // the database keeps it
		}
	})
	return out
}
