package engine

import (
	"fmt"
	"slices"

	"hyperprov/internal/db"
)

// ColChunk is the word-column chunk size, for the black-box tests that
// size tables around it.
const ColChunk = colChunk

// StreamWindow is the number of slots of a LiveStream pass over workers
// (> 0) goroutines.
func StreamWindow(workers int) int { return streamWindowPerWorker * workers }

// ListsOutOfCreationOrder names the first table holding a row with no
// version, or a row created in an earlier epoch than the row before it
// (a row's creation epoch is its oldest version's), or returns "". On
// this order a view's visible rows are a prefix of the positions.
func ListsOutOfCreationOrder(e *Engine) string {
	for _, rel := range e.schema.Names() {
		tbl := e.tables[rel]
		var last uint32
		for i, r := range rowsOf(tbl, tbl.cols.len()) {
			born, ok := creationEpoch(tbl, r)
			if !ok {
				return fmt.Sprintf("%s[%d]: no version", rel, i)
			}
			if born < last {
				return fmt.Sprintf("%s[%d]: created in epoch %d after a row of epoch %d", rel, i, born, last)
			}
			last = born
		}
	}
	return ""
}

// creationEpoch returns the epoch of r's oldest version, false for a row
// with none.
func creationEpoch(tbl *table, r *row) (uint32, bool) {
	ref := r.head.Load()
	if ref == 0 {
		return 0, false
	}
	v := tbl.vers.ref(int(ref - 1))
	for v.prev != 0 {
		v = tbl.vers.ref(int(v.prev - 1))
	}
	return v.epoch, true
}

// rowsOf collects the rows at positions [0, n) of tbl, in order.
func rowsOf(tbl *table, n int) []*row {
	var out []*row
	tbl.cols.eachRows(0, n, func(rows []row) {
		for i := range rows {
			out = append(out, &rows[i])
		}
	})
	return out
}

// PostingVolume sums the lengths of the posting lists of the index on
// rel.attr and the position slots their chunks hold.
func PostingVolume(e *Engine, rel, attr string) (entries, slots int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	tbl := e.tables[rel]
	for _, pl := range tbl.idx.cols[tbl.rel.AttrIndex(attr)].byValue {
		entries += pl.n
		slots += len(pl.head)
		for _, c := range pl.rest {
			slots += len(c)
		}
	}
	return entries, slots
}

// PostingListsOffRows names the first index of e whose posting lists are
// not exactly its table's rows — the list of value v holding, in order,
// the positions whose column word is v, and no other list — or returns "".
func PostingListsOffRows(e *Engine) string {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, rel := range e.schema.Names() {
		tbl := e.tables[rel]
		for col, ix := range tbl.idx.cols {
			if ix == nil {
				continue
			}
			want := map[db.Value][]uint32{}
			for p := range tbl.cols.len() {
				v := tbl.cols.value(col, p)
				want[v] = append(want[v], uint32(p))
			}
			if len(ix.byValue) != len(want) {
				return fmt.Sprintf("%s.%s: %d lists, %d values in the column", rel, ix.attr, len(ix.byValue), len(want))
			}
			for v, ps := range want {
				if pl := ix.byValue[v]; pl == nil || !slices.Equal(positions(pl), ps) {
					return fmt.Sprintf("%s.%s = %v: list %v, rows at %v", rel, ix.attr, v, pl, ps)
				}
			}
		}
	}
	return ""
}
