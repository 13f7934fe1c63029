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

// ListsOutOfSeqOrder names the first table whose sequence column is not
// strictly increasing with position, or whose row's oldest version is
// not born in the epoch of the row's column sequence, or returns "".
func ListsOutOfSeqOrder(e *Engine) string {
	for _, rel := range e.schema.Names() {
		tbl := e.tables[rel]
		var last uint64
		for i, r := range rowsOf(tbl, tbl.cols.len()) {
			seq := tbl.cols.seqs.at(i)
			if i > 0 && seq <= last {
				return fmt.Sprintf("%s[%d]: seq %#x after %#x", rel, i, seq, last)
			}
			oldest := tbl.vers.ref(int(r.head.Load() - 1))
			for oldest.prev != 0 {
				oldest = tbl.vers.ref(int(oldest.prev - 1))
			}
			if uint64(oldest.epoch) != SeqEpoch(seq) {
				return fmt.Sprintf("%s[%d]: oldest version born in epoch %d, column seq %#x", rel, i, oldest.epoch, seq)
			}
			last = seq
		}
	}
	return ""
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
