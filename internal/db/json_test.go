package db

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// nastyStrings are the payloads encoding/json treats specially: quotes
// and backslashes, every control byte, the HTML trio it escapes only
// when asked to, U+2028/U+2029, DEL, multi-byte runes, and invalid
// UTF-8 in several positions.
var nastyStrings = []string{
	"", "plain", `say "hi"`, `back\slash`, `\"`, "tab\there", "line\nfeed", "cr\rlf", "bell\b", "form\ffeed",
	"\x00", "\x01\x02\x1f", "nul\x00mid", "<script>&amp;</script>", "a\u2028b", "\u2029", "\u2027\u202a", "del\x7f",
	"héllo wörld", "日本語", "emoji 🚲", "\xff", "bad\xc3", "\xe2\x80", "ok\xe2\x80\xa8ok", "\xed\xa0\x80", "\xf0\x9f", "mixed\xfe\"\\\n",
}

// edgeFloats straddle encoding/json's switches to exponent form (below
// 1e-6, from 1e21) and include both zeros and the extremes.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 120.25, 1e-6, 9.999999e-7, 1e-7, 1.5e-9, -2.5e-10, 5e-324,
	1e20, 999999999999999900000, 1e21, 1.2345e21, -1e21, 1e100, math.MaxFloat64, -math.MaxFloat64, 1e6, 1.00004346e+06,
}

// encodingJSON renders v as json.Encoder does with HTML escaping off,
// without the trailing newline.
func encodingJSON(t *testing.T, v any) string {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatalf("encoding/json rejects %v: %v", v, err)
	}
	return string(bytes.TrimSuffix(buf.Bytes(), []byte("\n")))
}

// TestAppendJSONMatchesEncodingJSON checks the appenders against
// encoding/json value by value.
func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	for _, s := range nastyStrings {
		if got, want := string(AppendJSONString(nil, s)), encodingJSON(t, s); got != want {
			t.Errorf("string %q: %s, encoding/json writes %s", s, got, want)
		}
	}
	for b := 0; b < 256; b++ {
		s := "x" + string([]byte{byte(b)}) + "y"
		if got, want := string(AppendJSONString(nil, s)), encodingJSON(t, s); got != want {
			t.Errorf("byte %#x: %s, encoding/json writes %s", b, got, want)
		}
	}
	rng := rand.New(rand.NewSource(5))
	floats := append([]float64(nil), edgeFloats...)
	for i := 0; i < 2000; i++ {
		floats = append(floats, math.Float64frombits(rng.Uint64()))
	}
	for _, f := range floats {
		got, ok := F(f).AppendJSON(nil)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			if ok || len(got) != 0 {
				t.Errorf("float %v encoded as %s", f, got)
			}
			continue
		}
		if want := encodingJSON(t, f); !ok || string(got) != want {
			t.Errorf("float %v: %s (ok=%v), encoding/json writes %s", f, got, ok, want)
		}
	}
	for _, i := range []int64{0, 1, -1, 42, math.MaxInt64, math.MinInt64, 1<<53 + 1} {
		if got, _ := I(i).AppendJSON(nil); string(got) != encodingJSON(t, i) {
			t.Errorf("int %d: %s", i, got)
		}
	}
}

// TestTupleAppendJSON: a tuple renders as encoding/json renders the
// []any it used to be boxed into, an escaped string rendered in pieces
// cut at ASCII bytes equals the string rendered whole, and the first
// unencodable attribute is reported.
func TestTupleAppendJSON(t *testing.T) {
	tu := Tuple{S(`we"ird<&>`), I(-7), F(1e-7), S("\xff ")}
	got, bad := tu.AppendJSON([]byte("x"))
	if want := "x" + encodingJSON(t, []any{`we"ird<&>`, int64(-7), 1e-7, "\xff "}); bad != -1 || string(got) != want {
		t.Errorf("tuple: %s (bad=%d), encoding/json writes %s", got, bad, want)
	}
	if _, bad := (Tuple{I(1), F(math.NaN()), F(math.Inf(1))}).AppendJSON(nil); bad != 1 {
		t.Errorf("NaN at attribute 1 reported at %d", bad)
	}
	for _, s := range nastyStrings {
		whole := AppendJSONString(nil, "("+s+" +M "+s+")")
		pieces := append([]byte(nil), '"')
		for _, p := range []string{"(", s, " +M ", s, ")"} {
			pieces = AppendJSONEscaped(pieces, p)
		}
		if pieces = append(pieces, '"'); !bytes.Equal(whole, pieces) {
			t.Errorf("string %q in pieces: %s, whole: %s", s, pieces, whole)
		}
	}
}

// TestAppendKeyIsKey pins the scratch encoding to the durable one,
// beyond Key()'s 64-byte stack buffer too.
func TestAppendKeyIsKey(t *testing.T) {
	long := string(bytes.Repeat([]byte("k"), 200))
	for _, tu := range []Tuple{{}, {I(0)}, {S("a|b"), I(-3), F(0.1)}, {S(long), S(""), F(math.Copysign(0, -1))}} {
		want := ""
		for i, v := range tu {
			if i > 0 {
				want += "|"
			}
			switch v.Kind() {
			case KindString:
				want += "s" + itoa(len(v.Str())) + ":" + v.Str()
			case KindInt:
				want += "i" + v.String()
			case KindFloat:
				want += "f" + v.String()
			}
		}
		if got := tu.Key(); got != want {
			t.Errorf("Key() = %q, want %q", got, want)
		}
		if got := string(tu.AppendKey([]byte("pre"))); got != "pre"+want {
			t.Errorf("AppendKey = %q, want %q", got, "pre"+want)
		}
	}
}

func itoa(n int) string { return I(int64(n)).String() }

// TestValueFromJSON: the decode side accepts what AppendJSON writes
// (and numeric strings), typed by the attribute, and names the
// attribute in every refusal.
func TestValueFromJSON(t *testing.T) {
	s, i, f := Attribute{Name: "s", Kind: KindString}, Attribute{Name: "i", Kind: KindInt}, Attribute{Name: "f", Kind: KindFloat}
	for _, tc := range []struct {
		a    Attribute
		raw  any
		want Value
	}{
		{s, "x", S("x")}, {s, "", S("")}, {i, float64(-7), I(-7)}, {i, " 42 ", I(42)}, {f, 1.5, F(1.5)}, {f, float64(3), F(3)}, {f, "1e-7", F(1e-7)},
	} {
		if got, err := tc.a.ValueFromJSON(tc.raw); err != nil || got != tc.want {
			t.Errorf("%s from %#v: %v, %v; want %v", tc.a.Name, tc.raw, got, err, tc.want)
		}
	}
	for _, tc := range []struct {
		a   Attribute
		raw any
	}{{s, 1.0}, {s, nil}, {i, 1.5}, {i, "x"}, {i, true}, {f, "x"}, {f, []any{}}, {Attribute{Name: "k", Kind: Kind(9)}, 1.0}} {
		if v, err := tc.a.ValueFromJSON(tc.raw); err == nil || !strings.Contains(err.Error(), "attribute "+tc.a.Name) {
			t.Errorf("%s from %#v: accepted as %v (%v)", tc.a.Name, tc.raw, v, err)
		}
	}
}
