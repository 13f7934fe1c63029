// Tpcc runs a provenance-tracked TPC-C session (the Section 6.1
// workload): a scaled TPC-C instance executes a mix of New-Order,
// Payment and Delivery transactions lowered to hyperplane updates; the
// example then inspects the provenance of a customer's balance and
// answers "which orders would still exist had transaction X aborted?"
// without re-running anything.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"hyperprov"
	"hyperprov/internal/tpcc"
	"hyperprov/internal/upstruct"
)

func main() {
	gen := tpcc.NewGenerator(tpcc.Scaled(0.02))
	initial, err := gen.InitialDatabase()
	if err != nil {
		log.Fatal(err)
	}
	txns := gen.TransactionsForQueries(150)
	fmt.Printf("TPC-C instance: %d tuples across %d tables; log of %d transactions\n",
		initial.NumTuples(), len(initial.Schema().Names()), len(txns))

	eng := hyperprov.New(hyperprov.ModeNormalForm, initial)
	start := time.Now()
	if err := eng.ApplyAll(context.Background(), txns); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("executed with provenance in %v; provenance size %d nodes, %d stored rows (%d live)\n",
		time.Since(start), eng.ProvSize(), eng.NumRows(), eng.SupportSize())

	// Find a customer row a Payment transaction touched and show the
	// provenance trail of its current balance.
	var sample hyperprov.Tuple
	var sampleAnn *hyperprov.Expr
	eng.EachRow(tpcc.Customer, func(t hyperprov.Tuple, ann *hyperprov.Expr) {
		if sample == nil && ann.Size() >= 5 && upstruct.Eval(ann, upstruct.Bool, allTrue) {
			sample, sampleAnn = t.Clone(), ann // EachRow lends t
		}
	})
	if sample != nil {
		fmt.Printf("\ncustomer (c_id=%v, d=%v, w=%v) balance %v has provenance\n  %s\n",
			sample[0], sample[1], sample[2], sample[7], hyperprov.Minimize(sampleAnn))
	}

	// Hypothetically abort the first New-Order transaction and count the
	// orders that disappear, from provenance alone.
	var abortLabel string
	for i := range txns {
		if len(txns[i].Label) >= 8 && txns[i].Label[:8] == "neworder" {
			abortLabel = txns[i].Label
			break
		}
	}
	if abortLabel == "" {
		return
	}
	live := hyperprov.LiveDB(eng)
	hypo := hyperprov.AbortTransactions(eng, abortLabel)
	fmt.Printf("\naborting %s: ORDERS %d -> %d, ORDER_LINE %d -> %d, NEW_ORDER %d -> %d\n",
		abortLabel,
		live.Instance(tpcc.Orders).Len(), hypo.Instance(tpcc.Orders).Len(),
		live.Instance(tpcc.OrderLine).Len(), hypo.Instance(tpcc.OrderLine).Len(),
		live.Instance(tpcc.NewOrder).Len(), hypo.Instance(tpcc.NewOrder).Len())
}

func allTrue(hyperprov.Annot) bool { return true }
