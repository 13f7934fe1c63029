package engine

import "fmt"

// ColChunk is the word-column chunk size, for the black-box tests that
// size tables around it.
const ColChunk = colChunk

// StreamWindow is the number of slots of a LiveStream pass over workers
// (> 0) goroutines.
func StreamWindow(workers int) int { return streamWindowPerWorker * workers }

// ListsOutOfSeqOrder names the first table list that is not strictly
// increasing in row sequence number, or returns "".
func ListsOutOfSeqOrder(e *Engine) string {
	for _, rel := range e.schema.Names() {
		var last uint64
		for i, r := range e.tables[rel].list.snapshot() {
			if i > 0 && r.seq <= last {
				return fmt.Sprintf("%s[%d]: seq %#x after %#x", rel, i, r.seq, last)
			}
			last = r.seq
		}
	}
	return ""
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
