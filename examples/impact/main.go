// Impact demonstrates the analysis layer built on top of provenance:
// the inverted impact index answers "which output tuples could change
// if this input tuple or this transaction were revoked?", snapshots
// persist the annotated database across process restarts, and Explain
// renders a tuple's history for humans.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"hyperprov"
	"hyperprov/internal/benchutil"
	"hyperprov/internal/engine"
	"hyperprov/internal/tpcc"
)

func main() {
	gen := tpcc.NewGenerator(tpcc.Scaled(0.01))
	initial, err := gen.InitialDatabase()
	if err != nil {
		log.Fatal(err)
	}
	txns := gen.TransactionsForQueries(120)
	eng := hyperprov.New(hyperprov.ModeNormalForm, initial,
		hyperprov.WithInitialAnnotations(benchutil.KeyAnnot))
	if err := eng.ApplyAll(context.Background(), txns); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("TPC-C session: %d tuples, %d transactions tracked\n",
		initial.NumTuples(), len(txns))

	// Build the inverted index once; then impact questions are
	// sub-millisecond lookups plus candidate-local valuations.
	im := engine.BuildImpact(eng)
	fmt.Printf("impact index over %d distinct annotations\n", im.NumAnnotations())

	// Which rows would actually change if the first delivery had been
	// aborted?
	var delivery string
	for i := range txns {
		if len(txns[i].Updates) > 0 && txns[i].Label[:3] == "del" {
			delivery = txns[i].Label
			break
		}
	}
	if delivery == "" && len(txns) > 0 {
		delivery = txns[0].Label
	}
	if delivery != "" {
		rels, cands := im.Candidates(hyperprov.QueryAnnot(delivery))
		frels, flipped := im.Flipped(hyperprov.QueryAnnot(delivery))
		fmt.Printf("\ntransaction %s: %d candidate rows, %d actually flip:\n", delivery, len(cands), len(flipped))
		for i, tu := range flipped {
			if i >= 5 {
				fmt.Printf("  … and %d more\n", len(flipped)-5)
				break
			}
			fmt.Printf("  %-12s %v\n", frels[i], tu)
		}
		_ = rels
	}

	// Tuple-level dependencies of a modified customer.
	var cust hyperprov.Tuple
	eng.EachRow(tpcc.Customer, func(t hyperprov.Tuple, ann *hyperprov.Expr) {
		if cust == nil && ann.Size() > 1 {
			cust = t.Clone() // EachRow lends t
		}
	})
	if cust != nil {
		tuples, labels := engine.Dependencies(eng, tpcc.Customer, cust)
		fmt.Printf("\ncustomer (c_id=%v, d=%v, w=%v) depends on %d input tuples and %d transactions\n",
			cust[0], cust[1], cust[2], len(tuples), len(labels))
		fmt.Println(hyperprov.ExplainString(hyperprov.Minimize(eng.Annotation(tpcc.Customer, cust))))
	}

	// Persist the annotated database and prove the snapshot is usable.
	var buf bytes.Buffer
	if err := hyperprov.SaveSnapshot(&buf, eng); err != nil {
		log.Fatal(err)
	}
	restored, err := hyperprov.LoadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("snapshot: %d bytes for %d provenance nodes; restored live db equals original: %v\n",
		buf.Len(), eng.ProvSize(),
		hyperprov.LiveDB(restored).Equal(hyperprov.LiveDB(eng)))
}
