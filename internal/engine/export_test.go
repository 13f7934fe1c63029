package engine

import "fmt"

// ColChunk is the word-column chunk size, for the black-box tests that
// size tables around it.
const ColChunk = colChunk

// ListsOutOfSeqOrder names the first table list, on any shard, that is
// not strictly increasing in row sequence number, or returns "".
func ListsOutOfSeqOrder(e *Engine) string {
	for si, sh := range e.shards {
		for _, rel := range e.schema.Names() {
			var last uint64
			for i, r := range sh.tables[rel].list.snapshot() {
				if i > 0 && r.seq <= last {
					return fmt.Sprintf("shard %d, %s[%d]: seq %#x after %#x", si, rel, i, r.seq, last)
				}
				last = r.seq
			}
		}
	}
	return ""
}
