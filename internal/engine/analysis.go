package engine

import (
	"sort"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
	"hyperprov/internal/upstruct"
)

// Dependencies lists the basic annotations a tuple's provenance depends
// on, split into input-tuple annotations and transaction annotations —
// the raw material for the hypothetical-reasoning applications of
// Section 4 ("which inputs and which transactions could affect this
// tuple?"). Both slices are sorted by name. The tuple must be stored
// (possibly as a tombstone); otherwise both results are nil.
func Dependencies(e Reader, rel string, t db.Tuple) (tuples, txns []core.Annot) {
	ann := e.Annotation(rel, t)
	if ann == nil {
		return nil, nil
	}
	for a := range ann.Annots(nil) {
		if a.Kind == core.KindQuery {
			txns = append(txns, a)
		} else {
			tuples = append(tuples, a)
		}
	}
	sortAnnots(tuples)
	sortAnnots(txns)
	return tuples, txns
}

func sortAnnots(as []core.Annot) {
	sort.Slice(as, func(i, j int) bool { return as[i].Name < as[j].Name })
}

// Impact is the inverted dependency index of an annotated database: for
// every basic annotation, the stored rows whose provenance mentions it.
// Build it once with BuildImpact and query it for impact analysis
// ("which outputs could change if this input tuple or transaction were
// revoked?"); candidates are a sound overapproximation of the rows whose
// membership actually flips, which RefineImpact narrows by valuation.
type Impact struct {
	e     Reader
	index map[core.Annot][]impactRow
}

type impactRow struct {
	rel   string
	tuple db.Tuple
}

// BuildImpact scans every stored row once — against a single pinned
// MVCC horizon, so the index reflects one consistent state — and
// indexes its annotation's basic annotations.
func BuildImpact(e Reader) *Impact {
	im := &Impact{e: e, index: make(map[core.Annot][]impactRow)}
	e.Rows(func(rel string, t db.Tuple, ann *core.Expr) {
		t = t.Clone() // Rows lends it
		for a := range ann.Annots(nil) {
			im.index[a] = append(im.index[a], impactRow{rel: rel, tuple: t})
		}
	})
	return im
}

// Candidates returns the rows whose provenance mentions the annotation,
// as (relation, tuple) pairs in index order. The returned tuples must
// not be modified.
func (im *Impact) Candidates(a core.Annot) (rels []string, tuples []db.Tuple) {
	for _, r := range im.index[a] {
		rels = append(rels, r.rel)
		tuples = append(tuples, r.tuple)
	}
	return rels, tuples
}

// NumAnnotations reports the number of distinct basic annotations in
// the index.
func (im *Impact) NumAnnotations() int { return len(im.index) }

// Flipped evaluates, for every candidate row of the annotation, whether
// revoking it (assigning false, all else true) actually changes the
// row's membership, and returns the rows that flip. This is deletion
// propagation (for tuple annotations) or transaction abortion (for
// query annotations) restricted to the candidate set — equivalent to
// the global valuation because rows whose provenance does not mention
// the annotation cannot change.
func (im *Impact) Flipped(a core.Annot) (rels []string, tuples []db.Tuple) {
	withoutA := upstruct.Env[bool](func(x core.Annot) bool { return x != a })
	allTrue := upstruct.Env[bool](func(core.Annot) bool { return true })
	for _, r := range im.index[a] {
		ann := im.e.Annotation(r.rel, r.tuple)
		if ann == nil {
			continue
		}
		before := upstruct.Eval(ann, upstruct.Bool, allTrue)
		after := upstruct.Eval(ann, upstruct.Bool, withoutA)
		if before != after {
			rels = append(rels, r.rel)
			tuples = append(tuples, r.tuple)
		}
	}
	return rels, tuples
}
