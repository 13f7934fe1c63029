package subscribe

import (
	"slices"
	"strings"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/upstruct"
)

// Recompute builds the canonical state of a spec from scratch against
// a reader: one line per member row — relation, tuple key and, for
// watches, the annotation, tab-separated — relations in schema order
// and rows by key. It is the definition the incremental protocol is
// tested against, and shares nothing with it: the generic tree-walking
// upstruct.Eval under a map valuation, string keys, a string sort. Pass
// a pinned view (db.At(seq)) to recompute at a historical epoch.
func Recompute(v engine.Reader, sp Spec) ([]byte, error) {
	var b strings.Builder
	flush := func(lines []string) {
		slices.Sort(lines) // relation and key lead every line, and keys are unique
		for _, l := range lines {
			b.WriteString(l)
		}
	}
	if sp.Kind == KindWatch {
		pat, err := sp.pattern(v.Schema())
		if err != nil {
			return nil, err
		}
		var lines []string
		v.EachRow(sp.Rel, func(t db.Tuple, ann *core.Expr) {
			if pat.Matches(t) && !ann.IsZero() {
				lines = append(lines, sp.Rel+"\t"+t.Key()+"\t"+ann.String()+"\n")
			}
		})
		flush(lines)
		return []byte(b.String()), nil
	}
	annots, err := sp.dead()
	if err != nil {
		return nil, err
	}
	dead := make(map[core.Annot]bool, len(annots))
	for _, a := range annots {
		dead[a] = false
	}
	var lines []string
	last := ""
	engine.Specialize[bool](v, upstruct.Bool, upstruct.MapEnv(dead, true), func(rel string, t db.Tuple, member bool) {
		if rel != last {
			flush(lines)
			lines, last = lines[:0], rel
		}
		if member {
			lines = append(lines, rel+"\t"+t.Key()+"\n")
		}
	})
	flush(lines)
	return []byte(b.String()), nil
}
