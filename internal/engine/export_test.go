package engine

// ColChunk is the word-column chunk size, for the black-box tests that
// size tables around it.
const ColChunk = colChunk
