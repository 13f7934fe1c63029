package parser

// Allocation gates for the ingest front end, next to the engine's
// 0-allocs/op read gates (internal/engine/alloc_test.go). The claim: a
// parse allocates what its result keeps — a row or a pattern (and a SET
// list) per statement, a label, an update list and the transaction
// list — and nothing per token.

import (
	"testing"

	"hyperprov/internal/db"
	"hyperprov/internal/tpcc"
)

var sinkTxns []db.Transaction

// newOrderLog renders one TPC-C New-Order of at least 30 statements.
func newOrderLog(t testing.TB) (src string, statements int) {
	t.Helper()
	g := tpcc.NewGenerator(tpcc.DefaultConfig())
	for i := 0; i < 1000; i++ {
		txn := g.NewOrderTxn()
		if len(txn.Updates) < 30 {
			continue
		}
		src, err := FormatSQLLog(tpcc.Schema(), []db.Transaction{txn})
		if err != nil {
			t.Fatal(err)
		}
		return src, len(txn.Updates)
	}
	t.Fatal("no 30-statement New-Order in 1000 draws")
	return "", 0
}

func TestParseAllocsPerStatementNotPerToken(t *testing.T) {
	s := tpcc.Schema()
	src, statements := newOrderLog(t)
	var l lexer
	tokens := 0
	for l.init(src); l.next().kind != tokEOF; {
		tokens++
	}
	allocs := testing.AllocsPerRun(20, func() {
		var err error
		if sinkTxns, err = ParseSQLLog(s, src); err != nil {
			t.Fatal(err)
		}
	})
	// An INSERT keeps its row, an UPDATE its pattern and SET list; the
	// transaction keeps a label, the update list and the result slice.
	if limit := float64(2*statements + 4); allocs > limit {
		t.Fatalf("ParseSQLLog: %.0f allocs for %d statements (%d tokens), want ≤ %.0f", allocs, statements, tokens, limit)
	}
	t.Logf("%d statements, %d tokens, %d bytes: %.0f allocs", statements, tokens, len(src), allocs)
}

// TestBatchAllocsWhatTheEngineKeeps: a borrowed parse on a warm recycled
// parser allocates the one thing an engine keeps of a transaction, its
// label, and nothing else: inserted rows, patterns, SET lists and the
// update and transaction lists live in recycled slabs, and the source is
// scanned where it lies.
func TestBatchAllocsWhatTheEngineKeeps(t *testing.T) {
	s := tpcc.Schema()
	src, _ := newOrderLog(t)
	body := []byte(src)
	inserts := 0
	parse := func() {
		batch, err := ParseSQLBatch(s, body)
		if err != nil {
			t.Fatal(err)
		}
		inserts = 0
		for _, u := range batch.Txns[0].Updates {
			if u.Kind == db.OpInsert {
				inserts++
			}
		}
		batch.Release()
	}
	for i := 0; i < 4; i++ {
		parse() // the slabs double until one chunk holds the log
	}
	if allocs := testing.AllocsPerRun(20, parse); inserts == 0 || allocs > 1 {
		t.Fatalf("ParseSQLBatch: %.0f allocs for a label and %d inserted rows, want 1", allocs, inserts)
	}
}
