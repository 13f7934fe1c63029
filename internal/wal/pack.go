package wal

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// A group commit of two or more records is logged as one packed frame
// when that is smaller than its plain frames. Its payload is
//
//	| recPacked | count uvarint | size uvarint | deflate(body) |
//
// where body, size bytes once inflated, is the count records' lengths
// as uvarints followed by the records back to back. Deflate runs at
// ckptLevel, the checkpoint file's level. Readers expand a packed frame
// into its records, so an LSN still names a record; the replication
// stream carries one record a frame, as before. A torn packed frame
// loses its whole group, which was never acknowledged.
//
// The byte is no record type's: those count up from 1.
const recPacked byte = 0x80

// packEnd ends every packed frame: flate.Writer.Close ends the stream
// with an empty stored block, whose LEN and NLEN these are. A tear
// leaves nothing or zeros where they go, so a frame that fails its CRC
// and ends in them was written whole and damaged since.
var packEnd = []byte{0, 0, 0xff, 0xff}

// maxPackRatio is deflate's own ceiling: a length-258 match costs at
// least two bits, so no stream inflates past 1 032 times its bytes, and
// a packed frame that claims more is malformed.
const maxPackRatio = 1032

// errUnpack marks a packed frame that is whole (its CRC checks) but
// does not inflate or parse: a malformed record, not a torn write.
var errUnpack = errors.New("malformed packed frame")

// packer deflates groups for one log writer. Its deflate state is made
// once and reset for every group, so a warm packed append allocates
// nothing.
type packer struct {
	zw   *flate.Writer
	out  bytes.Buffer
	lens []byte
	hdr  [1 + 2*binary.MaxVarintLen64]byte
}

func newPacker() *packer {
	zw, _ := flate.NewWriter(nil, ckptLevel) // a valid level
	return &packer{zw: zw}
}

// pack returns the packed payload of the group, valid until the next
// call, or nil when its plain frames are no larger.
func (pk *packer) pack(payloads [][]byte) []byte {
	pk.lens = pk.lens[:0]
	plain := 0
	for _, p := range payloads {
		pk.lens = binary.AppendUvarint(pk.lens, uint64(len(p)))
		plain += frameHeaderSize + len(p)
	}
	size := len(pk.lens) + plain - frameHeaderSize*len(payloads)
	pk.out.Reset()
	pk.out.Write(binary.AppendUvarint(binary.AppendUvarint(append(pk.hdr[:0], recPacked), uint64(len(payloads))), uint64(size)))
	pk.zw.Reset(&pk.out)
	pk.zw.Write(pk.lens) // a bytes.Buffer takes every write
	for _, p := range payloads {
		pk.zw.Write(p)
	}
	pk.zw.Close()
	if frameHeaderSize+pk.out.Len() >= plain {
		return nil
	}
	return pk.out.Bytes()
}

// unpacker expands packed frames: body holds the last one inflated,
// lens and rest what is left of its lengths and records. The inflater
// is made at the first packed frame and reset for every later one.
type unpacker struct {
	zr         io.ReadCloser
	src        bytes.Reader
	body       []byte
	lens, rest []byte
	left       int
	one        [1]byte
}

// unpack inflates packed payload p and checks that it holds what its
// header says: count records, none empty, whose lengths and bytes fill
// size bytes exactly, with nothing after the deflate stream; a record
// in it that does not decode is the replay's to refuse, as in a plain
// frame. The body grows only once it is full of inflated bytes, so a
// header that lies costs what inflates, not what it claims.
func (u *unpacker) unpack(p []byte) error {
	u.left = 0
	d := recDecoder{buf: p[1:]}
	count, size := d.uvarint(), d.uvarint()
	switch {
	case d.err != nil:
		return d.err
	case count == 0 || count > size/2:
		return fmt.Errorf("%d records in %d bytes", count, size)
	case size > maxRecordLen || size > maxPackRatio*uint64(len(d.buf)):
		return fmt.Errorf("%d bytes claimed from %d deflated", size, len(d.buf))
	}
	u.src.Reset(d.buf)
	if u.zr == nil {
		u.zr = flate.NewReader(&u.src)
	} else if err := u.zr.(flate.Resetter).Reset(&u.src, nil); err != nil {
		return err
	}
	b := u.body[:0]
	for len(b) < int(size) {
		if len(b) == cap(b) {
			b = append(make([]byte, 0, min(int(size), max(2*len(b), 4*len(d.buf)))), b...)
			u.body = b
		}
		n, err := io.ReadFull(u.zr, b[len(b):min(cap(b), int(size))])
		if b = b[:len(b)+n]; err != nil {
			return fmt.Errorf("inflated %d of %d bytes: %v", len(b), size, err)
		}
	}
	if n, err := u.zr.Read(u.one[:]); n > 0 || err != io.EOF {
		return fmt.Errorf("the deflate stream does not end at %d bytes: %v", size, err)
	}
	if u.src.Len() > 0 {
		return fmt.Errorf("%d bytes after the deflate stream", u.src.Len())
	}
	lens, total := recDecoder{buf: b}, uint64(0)
	for i := uint64(0); i < count && lens.err == nil; i++ {
		// lens.buf shrinks as lengths are read, so total can pass it.
		if n := lens.uvarint(); n == 0 || total > uint64(len(lens.buf)) || n > uint64(len(lens.buf))-total {
			lens.fail("record %d of %d bytes does not fit", i, n)
		} else {
			total += n
		}
	}
	if lens.err == nil && total != uint64(len(lens.buf)) {
		lens.fail("%d bytes of records in %d", total, len(lens.buf))
	}
	if lens.err != nil {
		return lens.err
	}
	u.lens, u.rest, u.left = b[:len(b)-len(lens.buf)], lens.buf, int(count)
	return nil
}

// take returns the next record of the frame last unpacked, if any.
func (u *unpacker) take() ([]byte, bool) {
	if u.left == 0 {
		return nil, false
	}
	n, k := binary.Uvarint(u.lens)
	r := u.rest[:n:n]
	u.lens, u.rest, u.left = u.lens[k:], u.rest[n:], u.left-1
	return r, true
}

// recordReader reads the log's records out of its frames: a plain
// frame's payload is one record, a packed frame's are its group. A
// record is borrowed until the next call; first is the number of
// records in the packed frame it begins, 0 for any other.
type recordReader struct {
	*frameReader
	unpacker
	first int
}

func newRecordReader(r io.Reader, corrupt error) *recordReader {
	return &recordReader{frameReader: newFrameReader(r, corrupt)}
}

// reset points the reader at r, dropping what is left of a packed frame.
func (rr *recordReader) reset(r io.Reader) {
	rr.frameReader.reset(r)
	rr.left = 0
}

// next returns the next record, failing as frameReader.next does; a
// packed frame that is whole but does not unpack wraps errUnpack.
func (rr *recordReader) next() ([]byte, error) {
	rr.first = 0
	if r, ok := rr.take(); ok {
		return r, nil
	}
	p, err := rr.frameReader.next()
	if err != nil || p[0] != recPacked {
		return p, err
	}
	if err := rr.unpack(p); err != nil {
		return nil, fmt.Errorf("%w: %w: %v", rr.corrupt, errUnpack, err)
	}
	rr.first = rr.left
	r, _ := rr.take()
	return r, nil
}
