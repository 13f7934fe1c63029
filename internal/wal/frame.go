package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
)

// Frame layout, the log's and the replication stream's alike:
// | length uint32 LE | CRC32C uint32 LE | payload |. Every record and
// every message starts with its type byte, so no payload is empty.
const (
	frameHeaderSize = 8
	maxRecordLen    = 1 << 30
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// errFrameDamaged marks a frame that is there but wrong: a length past
// maxRecordLen, an empty payload, or a CRC mismatch. A frame that
// breaks off wraps io.ErrUnexpectedEOF instead.
var errFrameDamaged = errors.New("damaged frame")

// frameWriter frames payloads onto w — a log segment's buffer or a
// replication transport — flushing after every frame when fl is set
// (HTTP response streaming). A frame is built in place in buf, reused
// from frame to frame.
type frameWriter struct {
	w   io.Writer
	fl  http.Flusher
	buf []byte
}

func (fw *frameWriter) writeMsg(payload []byte) error {
	return fw.send(append(fw.frame(), payload...))
}

// writeRecord frames a record message — the type, the LSN, the payload
// as the log holds it — with no buffer but the writer's own.
func (fw *frameWriter) writeRecord(lsn uint64, payload []byte) error {
	return fw.send(append(binary.AppendUvarint(append(fw.frame(), msgRecord), lsn), payload...))
}

// frame returns the reused buffer with a frame header reserved; the
// caller appends the payload and sends it.
func (fw *frameWriter) frame() []byte {
	return append(fw.buf[:0], make([]byte, frameHeaderSize)...)
}

// send fills in the header of the frame b holds (length and CRC32C of
// what follows it), writes the frame and flushes. b becomes the
// writer's buffer.
func (fw *frameWriter) send(b []byte) error {
	fw.buf = b
	payload := b[frameHeaderSize:]
	binary.LittleEndian.PutUint32(b[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[4:8], crc32.Checksum(payload, crcTable))
	if _, err := fw.w.Write(b); err != nil {
		return err
	}
	if fw.fl != nil {
		fw.fl.Flush()
	}
	return nil
}

// frameGrowStep is the most a frame header can make the reader allocate
// ahead of the payload bytes that have actually arrived: a checkpoint
// chunk, the largest frame the leader writes as a matter of course,
// still lands in one allocation, and a damaged or hostile length costs
// its sender proportional input, not the reader a gigabyte.
const frameGrowStep = 2 * ckptChunkSize

// frameReader reads CRC-checked frames: a log segment in recovery and in
// a stream's tail reader, a replication transport on a follower. Every
// payload is read into one buffer, reused from frame to frame, so a
// payload is borrowed: valid until the next call.
type frameReader struct {
	r       *bufio.Reader
	corrupt error // the caller's sentinel, wrapped by every failure
	hdr     [frameHeaderSize]byte
	payload []byte
	good    int64 // bytes of the whole frames read since the last reset
}

func newFrameReader(r io.Reader, corrupt error) *frameReader {
	return &frameReader{r: bufio.NewReaderSize(r, 1<<16), corrupt: corrupt}
}

// reset points the reader at r, keeping its buffers.
func (fr *frameReader) reset(r io.Reader) {
	fr.r.Reset(r)
	fr.good = 0
}

// buffered reports whether the next frame is whole in the reader's
// buffer, so next returns it without waiting on the source.
func (fr *frameReader) buffered() bool {
	if fr.r.Buffered() < frameHeaderSize {
		return false
	}
	h, _ := fr.r.Peek(frameHeaderSize)
	return fr.r.Buffered()-frameHeaderSize >= int(binary.LittleEndian.Uint32(h))
}

// next returns the next frame's payload. A clean end between frames is
// io.EOF; a frame that breaks off wraps io.ErrUnexpectedEOF (or the
// transport's own error), one that is there but wrong errFrameDamaged,
// and both wrap fr.corrupt. A damaged frame is consumed through its
// header when its length is wrong and through its payload when its CRC
// is, so the call after reads where a writer put the next frame; a CRC
// mismatch returns the payload read, borrowed as a good one is.
func (fr *frameReader) next() ([]byte, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: truncated frame header: %w", fr.corrupt, err)
	}
	claimed := binary.LittleEndian.Uint32(fr.hdr[0:4])
	if claimed == 0 || claimed > maxRecordLen {
		return nil, fmt.Errorf("%w: %w: implausible length %d", fr.corrupt, errFrameDamaged, claimed)
	}
	length := int(claimed)
	// The buffer grows only once it is full of received bytes, by what it
	// holds or one step, whichever is more, and never past the frame: it
	// holds at most twice the bytes that arrived, or them and one step.
	p := fr.payload[:0]
	for len(p) < length {
		if len(p) == cap(p) {
			p = append(make([]byte, 0, len(p)+min(length-len(p), max(len(p), frameGrowStep))), p...)
			fr.payload = p
		}
		n, err := io.ReadFull(fr.r, p[len(p):min(cap(p), length)])
		p = p[:len(p)+n]
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF // the frame broke off, however the reads fell
			}
			return nil, fmt.Errorf("%w: truncated frame payload: %w", fr.corrupt, err)
		}
	}
	if crc32.Checksum(p, crcTable) != binary.LittleEndian.Uint32(fr.hdr[4:8]) {
		return p, fmt.Errorf("%w: %w: CRC mismatch", fr.corrupt, errFrameDamaged)
	}
	fr.good += int64(frameHeaderSize + length)
	return p, nil
}
