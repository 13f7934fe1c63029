package wal

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/url"

	"hyperprov/internal/db"
	"hyperprov/internal/engine"
)

// Replication stream protocol.
//
// A follower connects with the LSN it wants to resume from; the leader
// answers with a framed message stream over any byte transport (HTTP
// in production, an in-process pipe in tests). Messages reuse the WAL
// frame layout — | length u32 LE | CRC32C u32 LE | payload | — so the
// same torn/corrupt classification applies; the first payload byte is
// the message type:
//
//	hello      version, resync flag, mode, target LSN, horizon, snapshot LSN, schema
//	ckptChunk  a slice of the bootstrap checkpoint (resync only)
//	ckptDone   end of the bootstrap checkpoint
//	record     LSN + one WAL record payload, exactly the leader's bytes
//	heartbeat  leader LSN + committed horizon, sent when idle
//
// The hello message always comes first. With resync=0 the leader
// resumes records at exactly the follower's requested LSN; with
// resync=1 the requested suffix is no longer retained (pruned by a
// checkpoint, or the follower is ahead of a leader that lost its tail)
// and the leader instead ships its newest checkpoint followed by the
// records after it — the follower discards local state and reloads.
const (
	streamVersion byte = 1

	msgHello     byte = 1
	msgCkptChunk byte = 2
	msgCkptDone  byte = 3
	msgRecord    byte = 4
	msgHeartbeat byte = 5
)

// ckptChunkSize slices the bootstrap checkpoint into frames small
// enough to interleave progress and keep per-frame buffers modest.
const ckptChunkSize = 256 << 10

// ErrStreamCorrupt reports a replication frame that failed its CRC or
// decoded to garbage. Followers treat it like a dropped connection:
// resume from the last durably applied LSN.
var ErrStreamCorrupt = errors.New("wal: replication stream is corrupt")

// helloMsg is the decoded handshake.
type helloMsg struct {
	resync  bool
	mode    engine.Mode
	target  uint64 // leader LSN at connect: the initial-sync goal
	horizon uint64 // leader's committed MVCC horizon at connect
	snapLSN uint64 // checkpoint LSN that follows (resync only)
	schema  *db.Schema
}

func encodeHello(h helloMsg) []byte {
	var e recEncoder
	e.byte(msgHello)
	e.byte(streamVersion)
	if h.resync {
		e.byte(1)
	} else {
		e.byte(0)
	}
	e.byte(byte(h.mode))
	e.uvarint(h.target)
	e.uvarint(h.horizon)
	e.uvarint(h.snapLSN)
	encodeSchema(&e, h.schema)
	return e.buf.Bytes()
}

func decodeHello(d *recDecoder) (helloMsg, error) {
	if ver := d.byte(); d.err == nil && ver != streamVersion {
		return helloMsg{}, fmt.Errorf("stream version %d, want %d", ver, streamVersion)
	}
	h := helloMsg{resync: d.byte() == 1, mode: engine.Mode(d.byte()), target: d.uvarint(), horizon: d.uvarint(), snapLSN: d.uvarint()}
	if d.err != nil {
		return h, d.err
	}
	var err error
	h.schema, err = decodeSchema(d)
	return h, err
}

func encodeHeartbeat(lsn, horizon uint64) []byte {
	var e recEncoder
	e.byte(msgHeartbeat)
	e.uvarint(lsn)
	e.uvarint(horizon)
	return e.buf.Bytes()
}

func encodeCkptDone(lsn uint64) []byte {
	var e recEncoder
	e.byte(msgCkptDone)
	e.uvarint(lsn)
	return e.buf.Bytes()
}

// frameWriter frames messages onto a transport, flushing after every
// message when the transport supports it (HTTP response streaming). A
// message is built in place in buf, reused from frame to frame.
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
// what follows it, as appendFrame writes them), writes the frame and
// flushes. b becomes the writer's buffer.
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

// frameReader reads CRC-checked frames off a transport. Any damage —
// short read, oversized length, CRC mismatch — is ErrStreamCorrupt;
// a clean EOF between frames is io.EOF. Every message is a buffer of
// its own (recDecoder reads payloads in place and callers keep them).
type frameReader struct {
	r   *bufio.Reader
	hdr [frameHeaderSize]byte
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{r: bufio.NewReaderSize(r, 1<<16)}
}

func (fr *frameReader) readMsg() ([]byte, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: truncated frame header: %v", ErrStreamCorrupt, err)
	}
	length := binary.LittleEndian.Uint32(fr.hdr[0:4])
	sum := binary.LittleEndian.Uint32(fr.hdr[4:8])
	if length > maxRecordLen {
		return nil, fmt.Errorf("%w: implausible frame length %d", ErrStreamCorrupt, length)
	}
	// The buffer doubles once it is full of received bytes, so it never
	// holds more than they plus one step, itself at most what arrived.
	payload := make([]byte, 0, min(int(length), frameGrowStep))
	for len(payload) < int(length) {
		if len(payload) == cap(payload) {
			payload = append(make([]byte, 0, min(int(length), 2*cap(payload))), payload...)
		}
		n, err := io.ReadFull(fr.r, payload[len(payload):cap(payload)])
		payload = payload[:len(payload)+n]
		if err != nil {
			if err == io.EOF && len(payload) > 0 {
				err = io.ErrUnexpectedEOF // the frame broke off, however the reads fell
			}
			return nil, fmt.Errorf("%w: truncated frame payload: %v", ErrStreamCorrupt, err)
		}
	}
	if crc32.Checksum(payload, crcTable) != sum {
		return nil, fmt.Errorf("%w: frame CRC mismatch", ErrStreamCorrupt)
	}
	return payload, nil
}

// StreamSource opens one replication stream resuming at from — the
// follower's transport abstraction. Production followers use
// HTTPSource; tests wire the leader's ServeStream through an
// in-process pipe (optionally corrupting it) without a socket.
type StreamSource func(ctx context.Context, from uint64) (io.ReadCloser, error)

// HTTPSource is a StreamSource dialing a leader's replication endpoint
// (GET <base>/v1/replication/stream?from=N). client may be nil for
// http.DefaultClient; the request is expected to stream indefinitely,
// so the client must not set an overall timeout.
func HTTPSource(base string, client *http.Client) StreamSource {
	if client == nil {
		client = http.DefaultClient
	}
	return func(ctx context.Context, from uint64) (io.ReadCloser, error) {
		u, err := url.Parse(base)
		if err != nil {
			return nil, err
		}
		u.Path = "/v1/replication/stream"
		u.RawQuery = fmt.Sprintf("from=%d", from)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u.String(), nil)
		if err != nil {
			return nil, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			return nil, fmt.Errorf("wal: leader answered %s: %s", resp.Status, body)
		}
		return resp.Body, nil
	}
}
