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
