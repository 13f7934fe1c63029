package wal

import (
	"context"
	"errors"
	"fmt"
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
// in production, an in-process pipe in tests). Messages are WAL frames
// — | length u32 LE | CRC32C u32 LE | payload | — written and read by
// the log's frameWriter and frameReader; the first payload byte is the
// message type:
//
//	hello      version, resync flag, mode, target LSN, target LSN again, snapshot LSN, schema
//	ckptChunk  a slice of the bootstrap checkpoint (resync only)
//	ckptDone   end of the bootstrap checkpoint
//	record     LSN + one WAL record payload, exactly the leader's bytes
//	heartbeat  leader LSN, twice, sent when idle; before the
//	           records of a packed frame, also their count, so that a
//	           follower logs them as the leader did (an older follower
//	           reads the heartbeat and ignores the count)
//
// The hello message always comes first. With resync=0 the leader
// resumes records at exactly the follower's requested LSN; with
// resync=1 the requested suffix is no longer retained (pruned by a
// checkpoint, or the follower is ahead of a leader that lost its tail)
// and the leader instead ships its newest checkpoint followed by the
// records after it — the follower discards local state and reloads.
//
// The second copy of the LSN in the hello and an idle heartbeat is the
// slot where the leader's committed horizon went (a heartbeat that
// announces a packed frame writes 0 there). Read under the store's lock
// the horizon epoch is the LSN, so writing the LSN keeps every stream
// byte; no follower reads the slot, so builds of either side agree on
// version 1's layout.
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
	e.uvarint(h.target) // the horizon's slot (see the layout above)
	e.uvarint(h.snapLSN)
	encodeSchema(&e, h.schema)
	return e.buf.Bytes()
}

func decodeHello(d *recDecoder) (helloMsg, error) {
	if ver := d.byte(); d.err == nil && ver != streamVersion {
		return helloMsg{}, fmt.Errorf("stream version %d, want %d", ver, streamVersion)
	}
	h := helloMsg{resync: d.byte() == 1, mode: engine.Mode(d.byte()), target: d.uvarint()}
	d.uvarint() // the horizon's slot
	h.snapLSN = d.uvarint()
	if d.err != nil {
		return h, d.err
	}
	var err error
	h.schema, err = decodeSchema(d)
	return h, err
}

func encodeHeartbeat(lsn uint64) []byte {
	var e recEncoder
	e.byte(msgHeartbeat)
	e.uvarint(lsn)
	e.uvarint(lsn) // the horizon's slot
	return e.buf.Bytes()
}

func encodeCkptDone(lsn uint64) []byte {
	var e recEncoder
	e.byte(msgCkptDone)
	e.uvarint(lsn)
	return e.buf.Bytes()
}

// StreamSource opens one replication stream resuming at from — the
// follower's transport abstraction. Production followers use
// HTTPSource; tests wire ServeStream through an in-process pipe
// (optionally corrupting it) or wrap HTTPSource's body to inject network
// faults. ctx ends with the session, or when the open stays silent past
// the stall timeout.
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
