package engine

import (
	"errors"
	"fmt"
	"time"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
)

// BootStats says where an engine's start-up went: plain fields, filled
// once before the engine is served. A bootstrap from rows fills ReadMs
// (the files), ParseMs and BuildMs (the source and the loader of Load,
// each the time it worked; they overlap) and CheckpointMs (the store's
// initial checkpoint); a recovery or a follower fills LoadMs (the
// checkpoint, through Restore), ReplayedRecords and ReplayMs.
type BootStats struct {
	Source          string  `json:"source"` // csv, database, checkpoint, leader or empty
	Rows            int     `json:"rows"`
	ReadMs          float64 `json:"read_ms"`
	ParseMs         float64 `json:"parse_ms"`
	BuildMs         float64 `json:"build_ms"`
	CheckpointMs    float64 `json:"checkpoint_ms"`
	LoadMs          float64 `json:"load_ms"`
	ReplayedRecords uint64  `json:"replayed_records"`
	ReplayMs        float64 `json:"replay_ms"`
	TotalMs         float64 `json:"total_ms"`
}

// Ms is a duration in BootStats' unit.
func Ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }

// Boot returns the engine's start-up record. Whoever builds the engine
// completes it before anything else can read it.
func (e *Engine) Boot() *BootStats { return &e.boot }

// BootOf reports the Boot record of the engine serving r, behind a view
// or a persistent wrapper alike.
func BootOf(r Reader) BootStats { return r.view().e.boot }

// errPipeStopped is what emit answers a producer whose consumer failed.
var errPipeStopped = errors.New("engine: load stopped")

// pipe runs produce on a goroutine of its own and consume on the
// caller's, handing over what produce emits through a bounded channel, in
// order: a parser or decoder works on the next batch while the loader
// stores this one — the two share no lock. A
// consume error stops the producer at its next emit and is the error
// returned; otherwise produce's is. pipe returns once produce has, so no
// goroutine outlives it, and reports how long each side worked, waits on
// the channel not counted.
func pipe[B any](produce func(emit func(B) error) error, consume func(B) error) (produced, consumed time.Duration, err error) {
	// A few batches of slack let either side run ahead through the
	// other's uneven steps; what is in flight stays a few thousand rows.
	ch := make(chan B, 4)
	stop := make(chan struct{})
	var perr error
	go func() {
		defer close(ch)
		start, waited := time.Now(), time.Duration(0)
		perr = produce(func(b B) error {
			defer func(at time.Time) { waited += time.Since(at) }(time.Now())
			select {
			case ch <- b:
				return nil
			case <-stop:
				return errPipeStopped
			}
		})
		produced = time.Since(start) - waited
	}()
	for b := range ch {
		if err == nil {
			start := time.Now()
			if err = consume(b); err != nil {
				close(stop)
			}
			consumed += time.Since(start)
		}
	}
	if err == nil {
		err = perr
	}
	return produced, consumed, err
}

// Load builds an engine in the given mode from a row source — the one
// bulk path: New is Load over a Database's rows, cmd/hyperprov and
// wal.Store feed it CSV files with no Database in between. Each row gets
// a fresh tuple annotation (t0, t1, … unless WithInitialAnnotations
// overrides the naming) in the order delivered — relation order, then key
// order — so names depend on the data alone, never on how the source
// batched. The source runs beside the loader (see pipe). From a
// relation's announced row count (RowBatch.Total) the engine sizes the
// row map once and interns the fresh names as one batch (core.Vars).
// Neither the intern table's heads nor the columns need sizing: they
// grow by segments and chunks that are never copied, so the heap after
// a load is what row-by-row loading leaves.
func Load(mode Mode, schema *db.Schema, src db.RowSource, opts ...Option) (*Engine, error) {
	start := time.Now()
	cfg := newConfig(opts)
	l := loader{e: newEngine(mode, schema, cfg), initAnnot: cfg.initAnnot}
	parse, build, err := pipe(src, l.add)
	if err != nil {
		return nil, err
	}
	if l.n > 0 {
		l.e.boot = BootStats{Source: "database", Rows: int(l.n), ParseMs: Ms(parse), BuildMs: Ms(build), TotalMs: Ms(time.Since(start))}
	}
	return l.e, nil
}

// loader is the state of one Load: the relation being delivered (next its
// schema position + 1), how many rows came before its first and before
// the next one, and the fresh variables interned for its announced rows.
type loader struct {
	e         *Engine
	initAnnot func(rel string, t db.Tuple) core.Annot
	rel       *db.RelationSchema
	next      int
	first, n  uint64
	vars      []*core.Expr
}

func (l *loader) add(b db.RowBatch) error {
	if l.rel == nil || b.Rel != l.rel.Name || b.Restart {
		if l.rel != nil && b.Rel == l.rel.Name {
			l.e.dropLoaded(b.Rel)
			l.n = l.first
		} else {
			names := l.e.schema.Names()
			for l.next < len(names) && names[l.next] != b.Rel {
				l.next++
			}
			if l.next == len(names) {
				return fmt.Errorf("engine: %w %s (or out of schema order)", ErrUnknownRelation, b.Rel)
			}
			l.rel, l.first = l.e.schema.Relation(b.Rel), l.n
		}
		if l.initAnnot == nil {
			l.vars = core.Vars("t", core.KindTuple, int(l.first), b.Total)
		}
		if b.Total > 0 {
			l.e.tables[b.Rel].rows.reserve(b.Total)
		}
	}
	if l.initAnnot == nil && int(l.n-l.first)+len(b.Rows) > len(l.vars) {
		return fmt.Errorf("engine: source delivered more rows of %s than the %d it announced", b.Rel, len(l.vars))
	}
	for _, t := range b.Rows {
		if err := t.Conforms(l.rel); err != nil {
			return fmt.Errorf("engine: %w: %v", ErrBadTuple, err)
		}
		var ann *core.Expr
		if l.initAnnot != nil {
			ann = core.Var(l.initAnnot(b.Rel, t))
		} else {
			ann = l.vars[l.n-l.first]
		}
		l.e.load(b.Rel, ann, t)
		l.n++
	}
	return nil
}
