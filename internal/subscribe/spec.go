// Package subscribe maintains live provenance subscriptions over the
// engine's commit-event bus (engine.CommitHook): clients register a
// what-if once — a deletion-propagation impact set, an abort what-if,
// or an annotation watch on a (relation, pattern) — and receive
// incremental deltas as transactions commit, instead of re-asking
// /v1/whatif/* after every write.
//
// Incrementality is exact, not approximate: the Theorem 5.3 normal
// form is per-row local (a row's annotation depends only on that row's
// history and the query annotations, never on other rows), so rows a
// commit did not touch cannot change their specialization. Each commit
// event names exactly the touched rows, and the MVCC views on either
// side of the commit hold each one's annotation before and after it,
// so a subscription keeps no copy of its member rows: a what-if is a
// standing valuation (an upstruct.Kernel, whose memo holds the value of
// every node but the few the commit created), a watch compares the two
// hash-consed annotations by identity, and folding a commit costs the
// commit's rows, not the state. The protocol differential tests assert
// that a client composing the frames holds, at every epoch, exactly
// what Recompute builds from scratch.
//
// The event's row list is the engine's buffer, valid only while the
// hook runs; the hook copies it when, and only when, it queues the
// event for the dispatcher, so a manager without subscriptions adds no
// allocation to a commit.
package subscribe

import (
	"fmt"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/upstruct"
)

// Kind selects what a subscription maintains.
type Kind string

const (
	// KindDeletion maintains the Section 4.1 deletion-propagation
	// what-if — the rows surviving had the named input-tuple annotations
	// never existed — and KindAbort the transaction-abortion what-if
	// over the named transaction labels.
	KindDeletion Kind = "deletion"
	KindAbort    Kind = "abort"
	// KindWatch maintains the support rows of one relation matching a
	// hyperplane pattern, together with their annotation strings —
	// "tell me whenever provenance touches these tuples".
	KindWatch Kind = "watch"
)

// Spec describes one subscription, in the JSON shape the streaming API
// accepts verbatim.
type Spec struct {
	// ID names the subscription in its connection's frames. Optional;
	// the manager assigns sub-N when empty.
	ID   string `json:"id,omitempty"`
	Kind Kind   `json:"kind"`
	// Tuples are the input-tuple annotation names a deletion what-if
	// deletes, Labels the transaction labels an abort what-if aborts.
	Tuples []string `json:"tuples,omitempty"`
	Labels []string `json:"labels,omitempty"`
	// Rel and Match select the watched rows (KindWatch): Match has one
	// entry per attribute of Rel — null matches anything, a JSON value
	// must equal the attribute. An absent Match watches the whole
	// relation.
	Rel   string `json:"rel,omitempty"`
	Match []any  `json:"match,omitempty"`
}

// dead lists the annotations a what-if spec sends to false.
func (sp Spec) dead() ([]core.Annot, error) {
	names, what, annot := sp.Tuples, "tuples", core.TupleAnnot
	if sp.Kind == KindAbort {
		names, what, annot = sp.Labels, "labels", core.QueryAnnot
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("%s subscription needs %s", sp.Kind, what)
	}
	out := make([]core.Annot, len(names))
	for i, name := range names {
		out[i] = annot(name)
	}
	return out, nil
}

// pattern compiles a watch spec's JSON match array (null = wildcard,
// value = equality) into a typed pattern over its relation.
func (sp Spec) pattern(schema *db.Schema) (db.Pattern, error) {
	rel := schema.Relation(sp.Rel)
	if rel == nil {
		return nil, fmt.Errorf("%w %q", engine.ErrUnknownRelation, sp.Rel)
	}
	if sp.Match == nil {
		return db.AllPattern(len(rel.Attrs)), nil
	}
	if len(sp.Match) != len(rel.Attrs) {
		return nil, fmt.Errorf("match has %d terms, relation %s needs %d", len(sp.Match), rel.Name, len(rel.Attrs))
	}
	pat := make(db.Pattern, len(sp.Match))
	for i, raw := range sp.Match {
		if raw == nil {
			pat[i] = db.AnyVar(fmt.Sprintf("x%d", i))
			continue
		}
		v, err := rel.Attrs[i].ValueFromJSON(raw)
		if err != nil {
			return nil, err
		}
		pat[i] = db.Const(v)
	}
	return pat, nil
}

// sub is one live subscription: its compiled spec and the horizon its
// client has been told about. It holds no rows.
type sub struct {
	spec Spec
	conn *Conn
	head []byte // `,"id":…,"kind":…`: the subscription's part of every frame

	kern *upstruct.Kernel // deletion/abort: the standing valuation and its memo
	pat  db.Pattern       // watch: the compiled pattern

	// since is the epoch the client's copy reflects once it has read
	// every frame queued so far; events at or below it are skipped, and
	// At(since) is the before-image of the next one.
	since uint64
	// needResync marks the client copy stale (a delta frame was dropped
	// on the bounded queue, or the manager rebuilt). The reader repairs
	// it by pulling a resync snapshot — or, when fail says a frame could
	// not be built, the error frame that ends the subscription.
	needResync bool
	fail       string
	counted    uint64 // how much of kern.Misses() respecNodes has absorbed

	// added, removed and changed index the current commit's rows that
	// move this subscription, in wire order; reset after every commit.
	added, removed, changed []int32
}

// move records how row i of the commit moves the subscription: in or
// out of its member set, or (watches) to another annotation.
func (s *sub) move(i int32, was, is, changed bool) {
	switch {
	case is && !was:
		s.added = append(s.added, i)
	case was && !is:
		s.removed = append(s.removed, i)
	case changed:
		s.changed = append(s.changed, i)
	}
}

// compile validates a spec against the schema and builds the sub.
func compile(schema *db.Schema, sp Spec) (*sub, error) {
	s := &sub{spec: sp}
	var err error
	switch sp.Kind {
	case KindDeletion, KindAbort:
		var dead []core.Annot
		dead, err = sp.dead()
		s.kern = upstruct.NewKernel(upstruct.Dead(dead...))
	case KindWatch:
		s.pat, err = sp.pattern(schema)
	default:
		err = fmt.Errorf("unknown subscription kind %q", sp.Kind)
	}
	if err != nil {
		return nil, err
	}
	s.head = db.AppendJSONString(append(s.head, `,"id":`...), sp.ID)
	s.head = db.AppendJSONString(append(s.head, `,"kind":`...), string(sp.Kind))
	return s, nil
}
