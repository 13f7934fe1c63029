//go:build !race

// The build constraint is gates_test.go's: TestDocFigures reads
// benchCeilings, which is built without -race only.

package hyperprov

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// figureMarker is an HTML comment that follows a performance figure in
// README.md and names what produces it:
//
//	−19 %<!-- figure: SOURCE [vs SOURCE] ±TOL -->
//
// A SOURCE is a key of a recorded benchmark file, FILE#/json/pointer
// (RFC 6901), or a ceiling of gates_test.go,
// benchCeilings:BENCHMARK/METRIC. With one source the figure is its
// value; with "a vs b" it is the change from b to a in percent. The
// figure is the number just before the marker, and TOL is in its unit.
var figureMarker = regexp.MustCompile(`<!-- figure: (\S+)(?: vs (\S+))? ±([0-9.]+) -->`)

// figureBefore matches the number that ends the text before a marker:
// a sign (− or -), digits grouped by spaces, a fraction, a percent sign.
var figureBefore = regexp.MustCompile(`([−-]?\d[\d ]*(?:\.\d+)?)\s*%?\s*$`)

// percentWithoutMarker finds a percentage that no marker follows.
var percentWithoutMarker = regexp.MustCompile(`\d\s?%(?:[^<]|$)`)

// TestDocFigures holds every figure README.md marks to its producer, and
// fails on a percentage that carries no marker.
func TestDocFigures(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for n, line := range strings.Split(string(readme), "\n") {
		plain := figureMarker.ReplaceAllString(line, "<>")
		if loc := percentWithoutMarker.FindStringIndex(plain); loc != nil {
			t.Errorf("README.md:%d: %q names no producer", n+1, plain[max(0, loc[0]-30):loc[1]])
		}
		for _, m := range figureMarker.FindAllStringSubmatchIndex(line, -1) {
			at := fmt.Sprintf("README.md:%d", n+1)
			text := figureBefore.FindStringSubmatch(line[:m[0]])
			if text == nil {
				t.Errorf("%s: no figure before %s", at, line[m[0]:m[1]])
				continue
			}
			stated, err := parseFigure(text[1])
			if err != nil {
				t.Errorf("%s: %v", at, err)
				continue
			}
			want, err := figureSource(line[m[2]:m[3]])
			if err == nil && m[4] >= 0 {
				var base float64
				if base, err = figureSource(line[m[4]:m[5]]); err == nil {
					want = 100 * (want/base - 1)
				}
			}
			if err != nil {
				t.Errorf("%s: %v", at, err)
				continue
			}
			tol, _ := strconv.ParseFloat(line[m[6]:m[7]], 64)
			if math.Abs(stated-want) > tol {
				t.Errorf("%s: README states %g, its producer gives %.4g (tolerance %g): %s", at, stated, want, tol, line[m[0]:m[1]])
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("README.md marks no figure")
	}
	t.Logf("checked %d README figures", checked)
}

// parseFigure reads a number as README writes it: − for minus, digits
// grouped by spaces.
func parseFigure(s string) (float64, error) {
	s = strings.NewReplacer("−", "-", " ", "").Replace(s)
	return strconv.ParseFloat(s, 64)
}

// figureSource resolves one source of a marker to its value.
func figureSource(src string) (float64, error) {
	if key, ok := strings.CutPrefix(src, "benchCeilings:"); ok {
		i := strings.LastIndex(key, "/")
		for _, c := range benchCeilings {
			if i > 0 && c.bench == key[:i] && c.metric == key[i+1:] {
				return c.max, nil
			}
		}
		return 0, fmt.Errorf("no benchCeilings entry %s", key)
	}
	file, pointer, ok := strings.Cut(src, "#")
	if !ok {
		return 0, fmt.Errorf("source %q is neither FILE#/pointer nor benchCeilings:BENCHMARK/METRIC", src)
	}
	data, err := os.ReadFile(file)
	if err != nil {
		return 0, err
	}
	var v any
	if err := json.Unmarshal(data, &v); err != nil {
		return 0, fmt.Errorf("%s: %v", file, err)
	}
	for _, tok := range strings.Split(strings.TrimPrefix(pointer, "/"), "/") {
		tok = strings.NewReplacer("~1", "/", "~0", "~").Replace(tok)
		switch node := v.(type) {
		case map[string]any:
			if v, ok = node[tok]; !ok {
				return 0, fmt.Errorf("%s has no key %s", file, pointer)
			}
		case []any:
			i, err := strconv.Atoi(tok)
			if err != nil || i < 0 || i >= len(node) {
				return 0, fmt.Errorf("%s has no key %s", file, pointer)
			}
			v = node[i]
		default:
			return 0, fmt.Errorf("%s has no key %s", file, pointer)
		}
	}
	f, ok := v.(float64)
	if !ok {
		return 0, fmt.Errorf("%s#%s is %v, not a number", file, pointer, v)
	}
	return f, nil
}
