package provstore_test

import (
	"bytes"
	"testing"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
	"hyperprov/internal/provstore"
)

// FuzzReadExpr checks the expression decoder never panics and that
// everything it accepts is a well-formed expression that re-encodes.
func FuzzReadExpr(f *testing.F) {
	// Seed with a valid encoding.
	var buf bytes.Buffer
	e := core.PlusM(core.TupleVar("a"), core.DotM(core.Sum(core.TupleVar("b"), core.Zero()), core.QueryVar("p")))
	if err := provstore.WriteExpr(&buf, e); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		x, err := provstore.ReadExpr(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := provstore.WriteExpr(&out, x); err != nil {
			t.Fatalf("accepted expression does not re-encode: %v", err)
		}
		back, err := provstore.ReadExpr(&out)
		if err != nil || !back.Equal(x) {
			t.Fatalf("re-encoded expression does not round trip: %v", err)
		}
	})
}

// FuzzLoadSnapshot checks the snapshot loader never panics and that
// everything it accepts round-trips through SaveSnapshot.
func FuzzLoadSnapshot(f *testing.F) {
	f.Add([]byte("HPRV1\n"))
	f.Add([]byte("HPRV2\n"))
	f.Add([]byte("HPRV3\n"))
	f.Add([]byte{})
	// All three versions (hostile_test.go's images).
	for _, img := range sweptSnapshots(f) {
		sch := img.raw
		f.Add(sch)
		// Truncations of a valid snapshot exercise every mid-structure
		// EOF path; single-bit flips exercise the malformed-tag and
		// bad-count paths with otherwise plausible surroundings.
		for _, cut := range []int{7, len(sch) / 4, len(sch) / 2, len(sch) - 1} {
			if cut > 0 && cut < len(sch) {
				f.Add(sch[:cut])
			}
		}
		for _, pos := range []int{8, len(sch) / 3, len(sch) / 2, len(sch) - 2} {
			if pos > 0 && pos < len(sch) {
				flipped := bytes.Clone(sch)
				flipped[pos] ^= 0x40
				f.Add(flipped)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := provstore.LoadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := provstore.SaveSnapshot(&out, e); err != nil {
			t.Fatalf("accepted snapshot does not re-save: %v", err)
		}
		if _, err := provstore.LoadSnapshot(bytes.NewReader(out.Bytes())); err != nil {
			t.Fatalf("re-saved snapshot does not load: %v", err)
		}
	})
}

func dbSchemaForFuzz() (*db.Schema, error) {
	rel, err := db.NewRelationSchema("R",
		db.Attribute{Name: "a", Kind: db.KindInt},
		db.Attribute{Name: "b", Kind: db.KindString},
		db.Attribute{Name: "c", Kind: db.KindFloat},
	)
	if err != nil {
		return nil, err
	}
	return db.NewSchema(rel)
}

func fuzzTuple() db.Tuple {
	return db.Tuple{db.I(1), db.S("x"), db.F(2.5)}
}
