package engine_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/provstore"
	"hyperprov/internal/upstruct"
)

// wordsRel is a relation with every kind, so a row holds strings, an
// integer and a float side by side in its word columns.
var wordsRel = db.MustRelationSchema("R",
	db.Attribute{Name: "s", Kind: db.KindString}, db.Attribute{Name: "i", Kind: db.KindInt},
	db.Attribute{Name: "f", Kind: db.KindFloat}, db.Attribute{Name: "u", Kind: db.KindString})

// wordsValue picks a value of the kind: "" and a long string, the
// extreme integers, ±0, an infinity, a denormal and a NaN with a payload.
// One NaN only: the reference keys tuples by Key(), which renders every
// NaN alike.
func wordsValue(kind db.Kind, b byte) db.Value {
	switch kind {
	case db.KindString:
		return db.S([...]string{"", "a", "ü\x00", strings.Repeat("long", 300)}[b%4])
	case db.KindInt:
		return db.I([...]int64{0, -1, math.MinInt64, math.MaxInt64}[b%4])
	}
	return db.F(math.Float64frombits([...]uint64{0, 1 << 63, 0x7ff8_0000_dead_beef, 0x7ff0 << 48, 1, math.Float64bits(-2.5)}[b%6]))
}

// rowKey is a tuple of wordsRel as a comparable key: kinds and payload
// words, so float bits count.
func rowKey(t db.Tuple) [4]db.Value { return [4]db.Value(t) }

// rowOp is one write of FuzzRowWords: an update, or the restore of its Row.
type rowOp struct {
	u       db.Update
	restore bool
}

// FuzzRowWords: a row's values live only in the word columns. Every way
// in — an insertion, a modification's fresh target, a restore — writes
// them from a tuple the caller owns and then scribbles over, and every
// way out — Annotation, EachRow, SelectEach, the refs of the commit
// events, a snapshot's reload — reads back the tuples db.Database.ApplyAll
// computes, bit for bit, in both modes.
func FuzzRowWords(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 2, 0, 2, 1, 5, 3, 2, 2, 4, 9, 9, 9, 9})
	f.Add([]byte{4, 3, 3, 2, 2, 0, 3, 3, 2, 2, 2, 2, 2, 1, 0, 0, 0, 0, 1, 3, 2, 2})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 1, 3, 3, 3, 2, 1, 2, 2, 0, 5, 3, 0, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		tuple := func() db.Tuple {
			t := make(db.Tuple, len(wordsRel.Attrs))
			for i, a := range wordsRel.Attrs {
				t[i] = wordsValue(a.Kind, next())
			}
			return t
		}
		pinned := func() db.Pattern { // one column pinned to a value, the rest free
			p, c := db.AllPattern(len(wordsRel.Attrs)), int(next()%4)
			p[c] = db.Const(wordsValue(wordsRel.Attrs[c].Kind, next()))
			return p
		}
		// An op list: updates are grouped three to a transaction, a
		// restore closes the open one.
		var ops []rowOp
		for len(data) > 0 && len(ops) < 24 {
			switch next() % 5 {
			case 0, 1:
				ops = append(ops, rowOp{u: db.Insert("R", tuple())})
			case 2:
				set, c := make([]db.SetClause, len(wordsRel.Attrs)), int(next()%4)
				set[c] = db.SetTo(wordsValue(wordsRel.Attrs[c].Kind, next()))
				ops = append(ops, rowOp{u: db.Modify("R", pinned(), set)})
			case 3:
				ops = append(ops, rowOp{u: db.Delete("R", pinned())})
			case 4:
				ops = append(ops, rowOp{u: db.Insert("R", tuple()), restore: true})
			}
		}
		schema := db.MustSchema(wordsRel)
		for _, mode := range []engine.Mode{engine.ModeNaive, engine.ModeNormalForm} {
			checkRowWords(t, schema, mode, ops)
		}
	})
}

func checkRowWords(t *testing.T, schema *db.Schema, mode engine.Mode, ops []rowOp) {
	e := engine.NewEmpty(mode, schema, engine.WithAutoIndex(2))
	ref := db.NewDatabase(schema)
	named := map[[4]db.Value]bool{} // what the events' refs read in the hook
	e.SetCommitHook(func(ev engine.CommitEvent) {
		for _, r := range ev.Rows {
			tu, ok := engine.RowTuple(e, r, nil)
			if !ok || e.At(ev.Epoch).Annotation(r.Rel, tu) == nil {
				t.Fatalf("%v: the event's ref %v reads %v, which the engine does not find", mode, r, tu)
			}
			named[rowKey(tu)] = true
		}
	})
	// scribble overwrites what a caller lent a write: the engine keeps none of it.
	junk := db.S("scribbled")
	scribble := func(u *db.Update) {
		for i := range u.Row {
			u.Row[i] = junk
		}
		for i := range u.Sel {
			u.Sel[i] = db.Const(junk)
		}
		for i := range u.Set {
			u.Set[i] = db.SetTo(junk)
		}
	}
	clone := func(u db.Update) db.Update {
		u.Row, u.Sel, u.Set = u.Row.Clone(), append(db.Pattern(nil), u.Sel...), append([]db.SetClause(nil), u.Set...)
		return u
	}
	var tx db.Transaction
	commit := func() {
		if len(tx.Updates) == 0 {
			return
		}
		rtx := db.Transaction{Label: tx.Label}
		for _, u := range tx.Updates {
			rtx.Updates = append(rtx.Updates, clone(u))
		}
		if err := e.ApplyTransaction(&tx); err != nil {
			t.Fatal(err)
		}
		if err := ref.ApplyTransaction(&rtx); err != nil {
			t.Fatal(err)
		}
		for i := range tx.Updates {
			scribble(&tx.Updates[i])
		}
		tx = db.Transaction{}
	}
	for i, o := range ops {
		u := clone(o.u)
		if o.restore {
			commit()
			if err := e.RestoreRow("R", u.Row, core.TupleVar("r"+string(rune('a'+i)))); err != nil {
				t.Fatal(err)
			}
			if err := ref.InsertTuple("R", o.u.Row.Clone()); err != nil {
				t.Fatal(err)
			}
			scribble(&u)
			continue
		}
		if tx.Label == "" {
			tx.Label = "p" + string(rune('a'+i))
		}
		if tx.Updates = append(tx.Updates, u); len(tx.Updates) == 3 {
			commit()
		}
	}
	commit()

	// The live rows are the reference's tuples, and Annotation finds each.
	want := map[[4]db.Value]bool{}
	ref.Instance("R").Each(func(tu db.Tuple) {
		want[rowKey(tu)] = true
		if a := e.Annotation("R", tu); a == nil || !upstruct.Eval(a, upstruct.Bool, func(core.Annot) bool { return true }) {
			t.Fatalf("%v: Annotation of the reference's %v is %v", mode, tu, a)
		}
	})
	all, live, support := map[[4]db.Value]bool{}, map[[4]db.Value]bool{}, map[[4]db.Value]bool{}
	annots := map[[4]db.Value]string{}
	e.EachRow("R", func(tu db.Tuple, ann *core.Expr) {
		k := rowKey(tu)
		all[k], annots[k] = true, ann.String()
		if upstruct.Eval(ann, upstruct.Bool, func(core.Annot) bool { return true }) {
			live[k] = true
		}
		if !ann.IsZero() {
			support[k] = true
		}
	})
	sameSet := func(what string, got, want map[[4]db.Value]bool) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%v: %s holds %d tuples, want %d", mode, what, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("%v: %s lacks %v", mode, what, db.Tuple(k[:]))
			}
		}
	}
	sameSet("EachRow's live rows", live, want)
	sameSet("the commit events' rows", named, all)
	for c, a := range wordsRel.Attrs {
		for b := byte(0); b < 6; b++ {
			sel := db.AllPattern(len(wordsRel.Attrs))
			sel[c] = db.Const(wordsValue(a.Kind, b))
			got, match := map[[4]db.Value]bool{}, map[[4]db.Value]bool{}
			if err := e.SelectEach("R", sel, func(tu db.Tuple) { got[rowKey(tu)] = true }); err != nil {
				t.Fatal(err)
			}
			for k := range support {
				if k[c] == sel[c].Value() {
					match[k] = true
				}
			}
			sameSet("SelectEach "+sel.String(), got, match)
		}
	}

	// A snapshot reloads every row with its annotation, bit for bit.
	var snap bytes.Buffer
	if err := provstore.SaveSnapshot(&snap, e); err != nil {
		t.Fatal(err)
	}
	back, err := provstore.LoadSnapshot(&snap)
	if err != nil {
		t.Fatal(err)
	}
	reloaded := map[[4]db.Value]bool{}
	back.EachRow("R", func(tu db.Tuple, ann *core.Expr) {
		if k := rowKey(tu); annots[k] != ann.String() {
			t.Fatalf("%v: the snapshot reloads %v as %s, saved as %s", mode, tu, ann, annots[k])
		}
		reloaded[rowKey(tu)] = true
	})
	sameSet("the reloaded snapshot", reloaded, all)
}
