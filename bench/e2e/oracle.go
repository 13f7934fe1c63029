package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"sync/atomic"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/provstore"
	"hyperprov/internal/upstruct"
)

// expected is what a correct system must end in after a plan: the
// oracle's snapshot digest and, per what-if, its row count.
type expected struct {
	digest     [32]byte
	whatifRows []int
	// traceDigest is the digest after the first traceOps writes, where
	// the traced twins stop (traced runs only).
	traceDigest [32]byte
}

// snapshotDigest is the SHA-256 of the reader's provstore snapshot —
// the same bytes GET /v1/snapshot streams.
func snapshotDigest(r engine.Reader) ([32]byte, error) {
	h := sha256.New()
	if err := provstore.SaveSnapshot(h, r); err != nil {
		return [32]byte{}, err
	}
	return [32]byte(h.Sum(nil)), nil
}

// whatifEnv is the Boolean valuation of a what-if read.
func whatifEnv(op *readOp) upstruct.Env[bool] {
	dead := make(map[core.Annot]bool, len(op.names))
	for _, name := range op.names {
		if op.kind == readDeletion {
			dead[core.TupleAnnot(name)] = false
		} else {
			dead[core.QueryAnnot(name)] = false
		}
	}
	return upstruct.MapEnv(dead, true)
}

// countWhatifRows counts the rows a what-if leaves in the database.
func countWhatifRows(r engine.Reader, op *readOp) (int, error) {
	var n atomic.Int64
	err := engine.SpecializeParallel(context.Background(), r, upstruct.Bool, whatifEnv(op), 0, func(_ string, _ db.Tuple, in bool) {
		if in {
			n.Add(1)
		}
	})
	return int(n.Load()), err
}

// replayOracle replays the plan's op list in-process on a bare
// engine.New — no server, parser or WAL in the way — and returns what
// the wire run must match. traceOps > 0 also records the digest after
// that many writes.
func replayOracle(p *plan, traceOps int) (*expected, error) {
	ctx := context.Background()
	// The oracle always runs with the index advisor on, whatever the
	// servers run with: an index is a pure access-path choice (the
	// smoke test replays once without any and gets the same bytes), it
	// makes the replay a fraction of the run it checks, and on
	// bulk_scan it reaches the end state by another path than the
	// system under test.
	e := engine.New(engine.ModeNormalForm, p.initial, engine.WithAutoIndex(4))
	for i := range p.pre {
		if _, err := e.ApplyBatch(ctx, p.pre[i].txns); err != nil {
			return nil, fmt.Errorf("oracle: pre-applied log: %v", err)
		}
	}
	exp := &expected{}
	var err error
	for i := range p.writes {
		if _, err := e.ApplyBatch(ctx, p.writes[i].txns); err != nil {
			return nil, fmt.Errorf("oracle: write %d: %v", i, err)
		}
		if p.readEvery > 0 && (i+1)%p.readEvery == 0 {
			if k := (i+1)/p.readEvery - 1; k < len(p.reads) && p.reads[k].kind != readAnnotation {
				rows, err := countWhatifRows(e, &p.reads[k])
				if err != nil {
					return nil, err
				}
				exp.whatifRows = append(exp.whatifRows, rows)
			}
		}
		if i+1 == traceOps {
			if exp.traceDigest, err = snapshotDigest(e); err != nil {
				return nil, err
			}
		}
	}
	exp.digest, err = snapshotDigest(e)
	return exp, err
}

// jsonValue renders a value as the JSON type /v1/annotation expects.
func jsonValue(v db.Value) any {
	switch v.Kind() {
	case db.KindString:
		return v.Str()
	case db.KindInt:
		return v.Int()
	default:
		return v.Float()
	}
}
