package parser

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"hyperprov/internal/db"
	"hyperprov/internal/tpcc"
)

var batchParsers = map[string]func(*db.Schema, []byte) (Batch, error){
	"sql":     ParseSQLBatch,
	"datalog": ParseDatalogBatch,
}

// TestBatchEqualsParseLog: the borrowed entry points are the owned ones
// over the same code — same transactions, same verdicts and error
// texts — and with the builder poisoned on Release and the source bytes
// overwritten, neither an earlier owned result nor the next batch
// notices.
func TestBatchEqualsParseLog(t *testing.T) {
	db.PoisonOnReset.Store(true)
	defer db.PoisonOnReset.Store(false)
	s := diffSchema()
	for _, fe := range frontEnds {
		parseBatch := batchParsers[fe.name]
		for seed := int64(0); seed < 20; seed++ {
			r := rand.New(rand.NewSource(seed))
			src, err := fe.format(s, randTxns(r, s, 1+r.Intn(6)))
			if err != nil {
				t.Fatal(err)
			}
			inputs := []string{src, ""}
			for m := 0; m < 30; m++ {
				inputs = append(inputs, mutate(r, src))
			}
			for _, in := range inputs {
				owned, oerr := fe.parse(s, in)
				body := []byte(in)
				batch, berr := parseBatch(s, body)
				if (oerr == nil) != (berr == nil) || (oerr != nil && oerr.Error() != berr.Error()) {
					t.Fatalf("%s: verdicts differ on %q:\n owned:    %v\n borrowed: %v", fe.name, in, oerr, berr)
				}
				if oerr != nil {
					continue
				}
				if !reflect.DeepEqual(batch.Txns, owned) {
					t.Fatalf("%s: results differ on %q:\n owned:    %v\n borrowed: %v", fe.name, in, owned, batch.Txns)
				}
				batch.Release()
				for i := range body {
					body[i] = 0xff
				}
				if again, _ := fe.parse(s, in); !reflect.DeepEqual(again, owned) {
					t.Fatalf("%s: the pooled parser reached into an owned result of %q:\n parsed: %v\n now:    %v", fe.name, in, again, owned)
				}
			}
		}
	}
}

// TestBatchesConcurrently: pooled parsers, their slabs included, are
// one goroutine's at a time (run under -race).
func TestBatchesConcurrently(t *testing.T) {
	s := tpcc.Schema()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cfg := tpcc.DefaultConfig()
			cfg.Seed = int64(g + 1)
			gen := tpcc.NewGenerator(cfg)
			for i := 0; i < 40; i++ {
				want := gen.Transactions(1 + i%3)
				src, err := FormatSQLLog(s, want)
				if err != nil {
					t.Error(err)
					return
				}
				batch, err := ParseSQLBatch(s, []byte(src))
				if err != nil {
					t.Error(err)
					return
				}
				again, err := FormatSQLLog(s, batch.Txns)
				batch.Release()
				if err != nil || again != src {
					t.Errorf("goroutine %d, log %d: the batch does not format back to its source (%v)", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func ExampleBatch() {
	s := db.MustSchema(db.MustRelationSchema("R", db.Attribute{Name: "a", Kind: db.KindInt}))
	body := []byte("BEGIN t; DELETE FROM R WHERE a = 1; COMMIT;")
	batch, err := ParseSQLBatch(s, body)
	if err != nil {
		panic(err)
	}
	fmt.Println(batch.Txns[0].Label, batch.Txns[0].Updates[0]) // apply it here …
	batch.Release()                                            // … then recycle batch and body together
	// Output: t R-(1):-
}
