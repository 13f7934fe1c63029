package engine_test

import (
	"context"
	"testing"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/upstruct"
)

// accessControlSetup builds the Section 4.1 access-control scenario:
// per-country product visibility, an EU-only price update, a global
// category deletion.
func accessControlSetup(t *testing.T) (*engine.Engine, upstruct.Env[upstruct.Set]) {
	t.Helper()
	initial := productsDB(t)
	annots := engine.WithInitialAnnotations(func(rel string, tu db.Tuple) core.Annot {
		return core.TupleAnnot("t:" + tu[0].Str() + "/" + tu[1].Str())
	})
	e := engine.New(engine.ModeNormalForm, initial, annots)
	txns := []db.Transaction{
		{Label: "eu_sale", Updates: []db.Update{
			db.Modify("Products",
				db.Pattern{db.AnyVar("a"), db.Const(db.S("Sport")), db.AnyVar("c")},
				[]db.SetClause{db.Keep(), db.Keep(), db.SetTo(db.I(50))}),
		}},
		{Label: "cleanup", Updates: []db.Update{
			db.Delete("Products", db.Pattern{db.AnyVar("a"), db.Const(db.S("Fashion")), db.AnyVar("c")}),
		}},
	}
	if err := e.ApplyAll(context.Background(), txns); err != nil {
		t.Fatal(err)
	}
	visibility := map[string]upstruct.Set{
		"t:Kids mnt bike/Sport":       upstruct.NewSet("IL", "FR", "US"),
		"t:Kids mnt bike/Kids":        upstruct.NewSet("IL", "FR", "US"),
		"t:Tennis Racket/Sport":       upstruct.NewSet("FR", "DE"),
		"t:Children sneakers/Fashion": upstruct.NewSet("IL"),
	}
	env := func(a core.Annot) upstruct.Set {
		switch a {
		case core.QueryAnnot("eu_sale"):
			return upstruct.NewSet("FR", "DE")
		case core.QueryAnnot("cleanup"):
			return upstruct.NewSet("IL", "FR", "DE", "US")
		default:
			return visibility[a.Name]
		}
	}
	return e, env
}

func TestAccessControlSemantics(t *testing.T) {
	e, env := accessControlSetup(t)
	result := engine.AccessControl(e, env)
	rows := result["Products"]

	// The discounted racket is visible exactly where both the tuple and
	// the sale transaction are visible: {FR,DE} ∩ {FR,DE} = {FR, DE}.
	discounted := db.Tuple{db.S("Tennis Racket"), db.S("Sport"), db.I(50)}
	if got := rows[discounted.Key()]; !got.Equal(upstruct.NewSet("DE", "FR")) {
		t.Errorf("discounted racket visible in %v, want {DE, FR}", got)
	}
	// The racket at the old price survives exactly outside the sale:
	// {FR,DE} ∖ {FR,DE} = ∅ — absent from the result map.
	original := db.Tuple{db.S("Tennis Racket"), db.S("Sport"), db.I(70)}
	if _, ok := rows[original.Key()]; ok {
		t.Error("racket at the old price should be visible nowhere")
	}
	// The bike at the old price survives outside the sale:
	// {IL,FR,US} ∖ {FR,DE} = {IL, US}.
	oldBike := db.Tuple{db.S("Kids mnt bike"), db.S("Sport"), db.I(120)}
	if got := rows[oldBike.Key()]; !got.Equal(upstruct.NewSet("IL", "US")) {
		t.Errorf("old-price bike visible in %v, want {IL, US}", got)
	}
	// The sneakers were deleted globally: invisible.
	sneakers := db.Tuple{db.S("Children sneakers"), db.S("Fashion"), db.I(40)}
	if _, ok := rows[sneakers.Key()]; ok {
		t.Error("sneakers should be deleted for every country")
	}
}

// TestAccessControlRestrictionHomomorphism checks Prop. 4.2 end to end:
// restricting the set-valued result to one country coincides with
// evaluating in the Boolean structure under the restricted valuation.
func TestAccessControlRestrictionHomomorphism(t *testing.T) {
	e, env := accessControlSetup(t)
	for _, country := range []string{"IL", "FR", "DE", "US"} {
		boolView := engine.BoolRestrict(e, func(a core.Annot) bool { return env(a).Contains(country) })
		setResult := engine.AccessControl(e, env)
		n := 0
		for _, rows := range setResult {
			for key, set := range rows {
				if set.Contains(country) {
					n++
					_ = key
				}
			}
		}
		if got := boolView.NumTuples(); got != n {
			t.Errorf("country %s: Boolean view has %d tuples, set view %d", country, got, n)
		}
	}
}

func TestCertifySemantics(t *testing.T) {
	initial := productsDB(t)
	annots := engine.WithInitialAnnotations(func(rel string, tu db.Tuple) core.Annot {
		return core.TupleAnnot("t:" + tu[0].Str() + "/" + tu[1].Str())
	})
	e := engine.New(engine.ModeNormalForm, initial, annots)
	txn := db.Transaction{Label: "sale", Updates: []db.Update{
		db.Modify("Products",
			db.Pattern{db.AnyVar("a"), db.Const(db.S("Sport")), db.AnyVar("c")},
			[]db.SetClause{db.Keep(), db.Keep(), db.SetTo(db.I(50))}),
	}}
	if err := e.ApplyTransaction(&txn); err != nil {
		t.Fatal(err)
	}
	scores := map[string]float64{
		"t:Kids mnt bike/Sport":       0.9,
		"t:Kids mnt bike/Kids":        0.9,
		"t:Tennis Racket/Sport":       0.4,
		"t:Children sneakers/Fashion": 0.7,
		"sale":                        0.8,
	}
	env := func(a core.Annot) upstruct.Trust { return upstruct.Score(scores[a.Name]) }

	// L = 0.5: the racket (0.4) is untrusted, so its discounted version
	// does not certify; the bike's does (0.9 and 0.8 both pass).
	certified := engine.Certify(e, 0.5, env)
	bike50 := db.Tuple{db.S("Kids mnt bike"), db.S("Sport"), db.I(50)}
	racket50 := db.Tuple{db.S("Tennis Racket"), db.S("Sport"), db.I(50)}
	if !certified.Instance("Products").Contains(bike50) {
		t.Error("discounted bike should certify at L=0.5")
	}
	if certified.Instance("Products").Contains(racket50) {
		t.Error("discounted racket must not certify at L=0.5")
	}
	// L = 0.85: the sale itself (0.8) becomes untrusted — no discounted
	// tuple certifies, but the original bike rows do.
	strict := engine.Certify(e, 0.85, env)
	if strict.Instance("Products").Contains(bike50) {
		t.Error("discounted bike must not certify at L=0.85")
	}
	bike120 := db.Tuple{db.S("Kids mnt bike"), db.S("Sport"), db.I(120)}
	if !strict.Instance("Products").Contains(bike120) {
		t.Error("original bike should certify at L=0.85 (the untrusted sale did not happen)")
	}
	// Each certified tuple is its own: Specialize lends its tuple, so a
	// stored alias would turn every row into the last one streamed.
	for _, d := range []*db.Database{certified, strict} {
		in := d.Instance("Products")
		keys := map[string]bool{}
		in.Each(func(tu db.Tuple) {
			keys[tu.Key()] = true
			if !in.Contains(tu) {
				t.Errorf("certified row %v is not under its own key", tu)
			}
		})
		if len(keys) != in.Len() {
			t.Errorf("certified rows carry %d distinct keys, want %d", len(keys), in.Len())
		}
	}
}

// TestSpecializeVisitsAllRows: Specialize streams tombstones too, with
// values that evaluate to the structure's zero.
func TestSpecializeVisitsAllRows(t *testing.T) {
	e := engine.New(engine.ModeNaive, productsDB(t))
	txn := db.Transaction{Label: "p", Updates: []db.Update{
		db.Delete("Products", db.AllPattern(3)),
	}}
	if err := e.ApplyTransaction(&txn); err != nil {
		t.Fatal(err)
	}
	visited := 0
	live := 0
	engine.Specialize[bool](e, upstruct.Bool, func(core.Annot) bool { return true },
		func(rel string, tu db.Tuple, v bool) {
			visited++
			if v {
				live++
			}
		})
	if visited != 4 || live != 0 {
		t.Errorf("visited %d rows (%d live), want 4 tombstones", visited, live)
	}
}

// TestTrustToBoolHomomorphism: trusted() is a structure homomorphism
// from the certification semantics to the Boolean semantics, so
// Certify and BoolRestrict agree (another instance of Prop. 4.2).
func TestTrustToBoolHomomorphism(t *testing.T) {
	st := upstruct.TrustStructure{L: 0.5}
	h := func(a upstruct.Trust) bool { return st.Trusted(a) }
	samples := []upstruct.Trust{
		st.Zero(), upstruct.Score(0.2), upstruct.Score(0.7),
		{V: 1, R: upstruct.TrustTrue}, {V: 0, R: upstruct.TrustFalse},
	}
	for _, v := range upstruct.CheckHomomorphism[upstruct.Trust, bool](h, st, upstruct.Bool,
		func(a, b bool) bool { return a == b }, samples) {
		t.Error(v)
	}
}
