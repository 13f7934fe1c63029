package subscribe_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"hyperprov/internal/engine"
	"hyperprov/internal/subscribe"
	"hyperprov/internal/workload"
)

// BenchmarkSubscriptionFanout measures delta production and fanout
// cost while the Section 6.2 update mix applies over a 100k-tuple
// table, at 1, 64 and 512 live subscribers. Subscriber i watches pool
// group i mod groups (the hyperplane pattern production watchers would
// use) on its own drained connection, so every committed transaction
// is screened against every subscription; the reported time covers
// apply + full fanout (Sync barriers each iteration) on an engine built
// for the op.
func BenchmarkSubscriptionFanout(b *testing.B) {
	const pool, group = 200, 1
	initial, txns, err := workload.Generate(workload.Config{
		Tuples: 100_000, Pool: pool, Group: group, Updates: 100,
		QueriesPerTxn: 10, MergeRatio: 0.1, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	// target builds an engine with subs drained subscriptions on it; stop
	// ends the drainers and closes the manager.
	target := func(b *testing.B, subs int) (engine.DB, *subscribe.Manager, func()) {
		d := engine.Open(engine.ModeNormalForm, initial,
			engine.WithInitialAnnotations(testAnnot))
		m := subscribe.NewManager(d)
		var drainers sync.WaitGroup
		ctx, cancel := context.WithCancel(context.Background())
		for i := 0; i < subs; i++ {
			c := m.Attach(256)
			if _, err := m.Subscribe(c, subscribe.Spec{
				ID: fmt.Sprintf("w%d", i), Kind: subscribe.KindWatch, Rel: "R",
				Match: []any{nil, float64(i % (pool / group)), nil, nil, nil},
			}); err != nil {
				b.Fatal(err)
			}
			drainers.Add(1)
			go func() {
				defer drainers.Done()
				for {
					if _, err := c.Next(ctx); err != nil {
						return
					}
				}
			}()
		}
		return d, m, func() { cancel(); drainers.Wait(); m.Close() }
	}
	for _, subs := range []int{1, 64, 512} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			// Every op applies the log to an engine of its own, built
			// outside the timer, so what an op costs does not depend on b.N.
			var fanout, deltas uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				d, m, stop := target(b, subs)
				b.StartTimer()
				if err := d.ApplyAll(context.Background(), txns); err != nil {
					b.Fatal(err)
				}
				m.Sync()
				b.StopTimer()
				st := m.StatsSnapshot()
				fanout, deltas = fanout+st.Fanout, deltas+st.Deltas
				stop()
				b.StartTimer()
			}
			b.StopTimer()
			b.ReportMetric(float64(fanout)/float64(b.N), "rowevals/op")
			b.ReportMetric(float64(deltas)/float64(b.N), "deltas/op")
		})
	}
}
