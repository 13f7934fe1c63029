package parser

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"hyperprov/internal/db"
)

// TestParsedLogDoesNotRetainSource is the regression test for the label
// leak: labels and interned strings used to be substrings of the
// request body, so every ingested body stayed reachable for as long as
// the engine kept its QueryAnnot nodes — for ever.
func TestParsedLogDoesNotRetainSource(t *testing.T) {
	s := db.MustSchema(db.MustRelationSchema("Products",
		db.Attribute{Name: "Product", Kind: db.KindString},
		db.Attribute{Name: "Category", Kind: db.KindString},
		db.Attribute{Name: "Price", Kind: db.KindInt}))
	const bodies, bodySize = 100, 100 << 10
	pad := "-- " + strings.Repeat("x", 1000) + "\n"
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for _, fe := range frontEnds {
		var labels []string
		var values []db.Value
		before := heap()
		for i := 0; i < bodies; i++ {
			var b strings.Builder
			if fe.name == "sql" {
				fmt.Fprintf(&b, "BEGIN l%s%d;\nINSERT INTO Products VALUES ('leak-%s-%d', 'c', 1);\nCOMMIT;\n", fe.name, i, fe.name, i)
			} else {
				fmt.Fprintf(&b, "Products+,l%s%d(\"leak-%s-%d\", \"c\", 1):-\n", fe.name, i, fe.name, i)
			}
			for b.Len() < bodySize {
				b.WriteString(pad)
			}
			txns, err := fe.parse(s, b.String())
			if err != nil {
				t.Fatal(err)
			}
			labels = append(labels, txns[0].Label)
			values = append(values, txns[0].Updates[0].Row[0])
		}
		retained := int64(heap()) - int64(before)
		runtime.KeepAlive(labels)
		runtime.KeepAlive(values)
		// Labels, intern-table entries and slice growth: a few hundred
		// bytes a body, where the leak held all 100 kB of each.
		if limit := int64(bodies * 2 << 10); retained > limit {
			t.Errorf("%s: %d bodies of %d kB leave %d bytes reachable through labels and values, want < %d",
				fe.name, bodies, bodySize>>10, retained, limit)
		}
	}
}
