package db_test

// Property tests for the interned Value representation: a Value is a
// kind tag plus one payload word (string payloads become dense intern
// ids), so the representation must (a) round-trip every kind's payload
// exactly, (b) make Go's == coincide with semantic value equality
// within a kind and never hold across kinds, and (c) keep
// Tuple.Fingerprint/Key consistent with Equal. Randomized over many
// seeds because the string-intern table is shared process state: ids
// are assigned first-come, and equality must be stable no matter the
// interleaving of first sightings.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hyperprov/internal/db"
)

func randString(r *rand.Rand) string {
	alpha := []rune("abcXYZ012ÄÖπ漢\x00 :,()")
	n := r.Intn(12)
	runes := make([]rune, n)
	for i := range runes {
		runes[i] = alpha[r.Intn(len(alpha))]
	}
	return string(runes)
}

func TestValueInterningRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 2000; i++ {
		switch i % 3 {
		case 0:
			s := randString(r)
			v := db.S(s)
			if v.Kind() != db.KindString || v.Str() != s {
				t.Fatalf("S(%q) round-trips to %q", s, v.Str())
			}
			// Re-interning the same payload yields an ==-equal value
			// (dense ids are stable per payload).
			if w := db.S(s); w != v {
				t.Fatalf("S(%q) != S(%q): intern id not stable", s, s)
			}
		case 1:
			n := r.Int63() - r.Int63()
			v := db.I(n)
			if v.Kind() != db.KindInt || v.Int() != n {
				t.Fatalf("I(%d) round-trips to %d", n, v.Int())
			}
			if w := db.I(n); w != v {
				t.Fatalf("I(%d) not ==-stable", n)
			}
		case 2:
			f := math.Float64frombits(r.Uint64())
			v := db.F(f)
			if v.Kind() != db.KindFloat {
				t.Fatalf("F(%v) has kind %v", f, v.Kind())
			}
			got := v.Float()
			if math.Float64bits(got) != math.Float64bits(f) {
				t.Fatalf("F round-trip lost bits: %x vs %x", math.Float64bits(got), math.Float64bits(f))
			}
			if w := db.F(f); w != v {
				t.Fatalf("F(%v) not ==-stable", f)
			}
		}
	}
}

func TestValueEqualitySemantics(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	// Distinct payloads must compare unequal within a kind.
	seen := map[string]db.Value{}
	for i := 0; i < 500; i++ {
		s := randString(r)
		v := db.S(s)
		if prev, ok := seen[s]; ok && prev != v {
			t.Fatalf("same string %q interned to different values", s)
		}
		for o, w := range seen {
			if (o == s) != (w == v) {
				t.Fatalf("== disagrees with payload equality for %q vs %q", s, o)
			}
		}
		seen[s] = v
	}
	// Across kinds, == never holds — even when payload words collide
	// (I(n) and F with equal bits; S's small intern ids vs small ints).
	if db.S("1") == db.I(1) || db.I(1) == db.F(1) || db.S("") == db.I(0) {
		t.Fatal("values of different kinds compare equal")
	}
	one := db.F(1)
	if db.I(int64(math.Float64bits(1))) == one {
		t.Fatal("int with float's bit pattern compares equal to the float")
	}
	// Documented float edge semantics: bitwise, not IEEE.
	if db.F(math.Copysign(0, -1)) == db.F(0) {
		t.Fatal("-0 and 0 must differ (bitwise float equality)")
	}
	nan1 := db.F(math.NaN())
	if nan1 != db.F(math.NaN()) {
		t.Fatal("identical NaN payloads must compare equal (bitwise)")
	}
}

// TestTupleFingerprintKeyConsistency: Equal, == of the underlying
// values, Fingerprint and Key must all agree — the fingerprint is the
// hot-path identity (table probes) and the key the
// durable one (snapshots, WAL), so a disagreement corrupts one store
// or the other.
func TestTupleFingerprintKeyConsistency(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	randTuple := func() db.Tuple {
		return db.Tuple{
			db.I(int64(r.Intn(50))),
			db.S(fmt.Sprintf("s%d", r.Intn(30))),
			db.F(float64(r.Intn(20)) / 4),
		}
	}
	tuples := make([]db.Tuple, 400)
	for i := range tuples {
		tuples[i] = randTuple()
	}
	for i, a := range tuples {
		if !a.Equal(a.Clone()) {
			t.Fatal("tuple not equal to its clone")
		}
		if a.Fingerprint() != a.Clone().Fingerprint() {
			t.Fatal("clone fingerprint differs")
		}
		for _, b := range tuples[:i] {
			eq := a.Equal(b)
			if eq != (a.Key() == b.Key()) {
				t.Fatalf("Equal=%v but key equality=%v for %v vs %v", eq, !eq, a, b)
			}
			if eq && a.Fingerprint() != b.Fingerprint() {
				t.Fatalf("equal tuples with different fingerprints: %v", a)
			}
		}
	}
}
