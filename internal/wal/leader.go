package wal

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// streamHandle is one follower's registration with the leader: the next
// LSN it will be sent, which fences log pruning.
type streamHandle struct {
	pos atomic.Uint64 // stored by ServeStream after every record it writes
}

// registerStream adds a handle at position pos; pruning retains every
// segment holding records at or after the minimum registered position.
func (s *Store) registerStream(h *streamHandle, pos uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return ErrClosed
	}
	h.pos.Store(pos)
	if s.streams == nil {
		s.streams = make(map[*streamHandle]struct{})
	}
	s.streams[h] = struct{}{}
	s.streamsServed.Add(1)
	return nil
}

func (s *Store) unregisterStream(h *streamHandle) {
	s.mu.Lock()
	delete(s.streams, h)
	s.mu.Unlock()
}

// rung is a bell that has already rung: a stream behind the log end
// goes straight on.
var rung = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// logEnd returns the log end — the next LSN it will assign — and a bell
// that rings once that end has passed pos: rung already if it has. It
// takes no lock, so a stream a commit wakes reads on while the writer
// still applies under mu. The bell is taken before the end is read: a
// commit or Close after that rings it, one before is seen.
func (s *Store) logEnd(pos uint64) (end uint64, bell <-chan struct{}, err error) {
	bell = s.tail.Bell()
	if s.closed.Load() {
		return 0, nil, ErrClosed
	}
	if end = s.lsn.Load(); pos < end {
		return end, rung, nil
	}
	return end, bell, nil
}

// minStreamPosLocked is the pruning fence: the smallest position any
// registered stream still needs, the first record it has not been sent.
// Segments whose records all precede it may be pruned; the rest are
// retained even if a checkpoint covers them, so an active stream never
// has a segment deleted under it.
func (s *Store) minStreamPosLocked() uint64 {
	fence := ^uint64(0)
	for h := range s.streams {
		fence = min(fence, h.pos.Load())
	}
	return fence
}

// streamPlan is the decision the leader takes at handshake time.
type streamPlan struct {
	hello   helloMsg
	pos     uint64 // first LSN the record stream will carry
	resync  bool
	ckptLSN uint64
}

// planStream decides, under mu, whether the follower's requested resume
// point can be served from the retained log or needs a full resync from
// the newest checkpoint. A resync is needed when the suffix was pruned,
// when the follower claims a future LSN (it replicated from a leader
// life whose tail this process never recovered — divergence), or when
// a zero follower asks for history whose prefix lives only in the
// bootstrap checkpoint.
func (s *Store) planStream(from uint64) (streamPlan, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return streamPlan{}, ErrClosed
	}
	plan := streamPlan{
		hello: helloMsg{
			mode:   s.Mode(),
			target: s.lsn.Load(),
			schema: s.Schema(),
		},
		pos: from,
	}
	segs, err := listSeqFiles(s.fs, s.dir, segPrefix, segSuffix)
	if err != nil {
		return streamPlan{}, err
	}
	oldest := uint64(0)
	if len(segs) > 0 {
		oldest = segs[0]
	}
	switch {
	case from > s.lsn.Load():
		plan.resync = true
	case from < oldest:
		plan.resync = true
	case from == 0 && s.hasInit:
		// Records alone cannot rebuild the bootstrap rows.
		plan.resync = true
	}
	if plan.resync {
		ckpts, err := listSeqFiles(s.fs, s.dir, ckptPrefix, ckptSuffix)
		if err != nil {
			return streamPlan{}, err
		}
		if len(ckpts) == 0 {
			// No checkpoint to bootstrap from: tell the caller to take
			// one and re-plan (cannot checkpoint under this mu hold in a
			// helper that the checkpoint path itself may contend with).
			return plan, errNoCheckpoint
		}
		plan.ckptLSN = ckpts[len(ckpts)-1]
		plan.pos = plan.ckptLSN
		plan.hello.resync = true
		plan.hello.snapLSN = plan.ckptLSN
	}
	return plan, nil
}

// errNoCheckpoint tells ServeStream to force a checkpoint and re-plan.
var errNoCheckpoint = errors.New("wal: no checkpoint to resync from")

// ServeStream streams the replication feed to one follower over w,
// resuming at from, until ctx is done, a write fails or the store
// closes. The sequence is: handshake (planStream), an optional checkpoint
// bootstrap, then one loop — wait until the log end passes the stream's
// position, a heartbeat is due or ctx ends, then send the records up to
// that end, read from the log on disk. The log is the only queue: a
// follower however far behind is sent what the retained segments hold.
// Frames are flushed one by one when w is an http.Flusher. Safe to call
// concurrently from any number of followers; the store keeps accepting
// writes throughout.
func (s *Store) ServeStream(ctx context.Context, w io.Writer, from uint64) error {
	h := &streamHandle{}
	if err := s.registerStream(h, from); err != nil {
		return err
	}
	defer s.unregisterStream(h)
	fw := &frameWriter{w: w}
	fw.fl, _ = w.(http.Flusher)

	plan, err := s.planStream(from)
	if errors.Is(err, errNoCheckpoint) {
		if cerr := s.Checkpoint(); cerr != nil {
			return fmt.Errorf("wal: resync needs a checkpoint: %w", cerr)
		}
		plan, err = s.planStream(from)
	}
	if err != nil {
		return err
	}
	pos := plan.pos
	h.pos.Store(pos)
	if err := fw.writeMsg(encodeHello(plan.hello)); err != nil {
		return err
	}
	if plan.resync {
		if err := s.streamCheckpoint(fw, plan.ckptLSN); err != nil {
			return err
		}
		s.resyncsServed.Add(1)
	}

	tail := tailReader{fs: s.fs, dir: s.dir}
	defer tail.close()
	hb := time.NewTicker(s.opts.heartbeat)
	defer hb.Stop()
	for {
		end, bell, err := s.logEnd(pos)
		if err != nil {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-bell:
		case <-hb.C:
			s.mu.Lock()
			lsn := s.lsn.Load()
			s.mu.Unlock()
			if err := fw.writeMsg(encodeHeartbeat(lsn)); err != nil {
				return err
			}
		}
		for ; pos < end && ctx.Err() == nil; pos++ {
			payload, err := tail.next(pos)
			if err != nil {
				return err
			}
			if k := uint64(tail.rr.first); k > 0 {
				// A heartbeat to a follower that knows no more; to one that
				// does, the k records from pos on are one frame of the log.
				if err := fw.send(binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(append(fw.frame(), msgHeartbeat), pos+k), 0), k)); err != nil {
					return err
				}
			}
			if err := h.send(fw, pos, payload); err != nil {
				return err
			}
		}
	}
}

// send writes record lsn to the stream and moves the handle's fence past
// it: a checkpoint may prune whatever every stream has been sent. A
// follower that has not applied all of it yet and loses its connection
// resyncs from the checkpoint instead of pinning the log meanwhile.
func (h *streamHandle) send(fw *frameWriter, lsn uint64, payload []byte) error {
	if err := fw.writeRecord(lsn, payload); err != nil {
		return err
	}
	h.pos.Store(lsn + 1)
	return nil
}

// streamCheckpoint ships the checkpoint file at lsn in chunks. The file
// is immutable once renamed into place and the newest checkpoint is
// never pruned, but a checkpoint that was superseded between planning
// and reading can vanish — the caller's reconnect logic handles the
// resulting error.
func (s *Store) streamCheckpoint(fw *frameWriter, lsn uint64) error {
	data, err := s.fs.ReadFile(filepath.Join(s.dir, ckptName(lsn)))
	if err != nil {
		return err
	}
	for off := 0; off < len(data); off += ckptChunkSize {
		chunk := data[off:min(off+ckptChunkSize, len(data))]
		if err := fw.send(append(append(fw.frame(), msgCkptChunk), chunk...)); err != nil {
			return err
		}
	}
	return fw.writeMsg(encodeCkptDone(lsn))
}

// tailReader reads one stream's records out of the log in LSN order. It
// keeps the segment holding the next record open at the offset it has
// read to, reads only the bytes appended since, through one record
// reader (which expands a packed frame into its records),
// and at a segment's end opens the next one, which is named by the LSN
// it starts at. Every record it is asked for is committed — flushed
// before the log end passed it — so a segment that has no more bytes has
// no more records. Pruning never removes a segment holding a record the
// stream has not been sent, and keeps the retained log one chain, so a
// missing segment is an error, never a wait.
type tailReader struct {
	fs  FS
	dir string
	f   io.ReadCloser // segment holding record lsn; nil until the first next
	rr  *recordReader // reads f
	lsn uint64        // LSN of the next record rr yields
}

// next returns the payload of record lsn, valid until the following call.
// The first call may name any retained record; each later one names the
// record after the one before.
func (t *tailReader) next(lsn uint64) ([]byte, error) {
	if t.f == nil {
		segs, err := listSeqFiles(t.fs, t.dir, segPrefix, segSuffix)
		if err != nil {
			return nil, err
		}
		i := sort.Search(len(segs), func(i int) bool { return segs[i] > lsn })
		if i == 0 {
			return nil, fmt.Errorf("wal: log position %d is no longer retained", lsn)
		}
		if err := t.open(segs[i-1]); err != nil {
			return nil, err
		}
	}
	for {
		payload, err := t.rr.next()
		if err == io.EOF {
			// The segment ended before record t.lsn: the next one starts there.
			if err := t.open(t.lsn); err != nil {
				return nil, err
			}
			continue
		} else if err != nil {
			return nil, fmt.Errorf("record %d: %w", t.lsn, err)
		}
		if t.lsn++; t.lsn > lsn {
			return payload, nil
		}
	}
}

// open switches to the segment that starts at LSN start.
func (t *tailReader) open(start uint64) error {
	t.close()
	name := segName(start)
	f, err := t.fs.Open(filepath.Join(t.dir, name))
	if err != nil {
		return fmt.Errorf("wal: log position %d: segment %s: %w", start, name, err)
	}
	if t.rr == nil {
		t.rr = newRecordReader(f, ErrCorrupt)
	}
	t.f, t.lsn = f, start
	t.rr.reset(f)
	return nil
}

func (t *tailReader) close() {
	if t.f != nil {
		t.f.Close()
		t.f = nil
	}
}
