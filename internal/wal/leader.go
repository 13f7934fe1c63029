package wal

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// streamChanCap bounds the live-tail buffer per follower. A follower
// that falls further behind than this while attached is detached and
// catches up from the on-disk log instead — the log is the queue; the
// channel only covers the rendezvous.
const streamChanCap = 4096

// streamRec is one record fanned out to attached followers.
type streamRec struct {
	lsn     uint64
	payload []byte
}

// streamHandle is one follower's registration with the leader: its
// position, the next LSN it will be sent (which fences log pruning),
// and, while attached, the live-tail channel.
type streamHandle struct {
	pos atomic.Uint64  // stored by ServeStream after every record it writes
	ch  chan streamRec // non-nil only while attached; guarded by mu
}

// registerStream adds a handle at position pos; pruning retains every
// segment holding records at or after the minimum registered position.
func (s *Store) registerStream(h *streamHandle, pos uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
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
	h.detachLocked()
	delete(s.streams, h)
	s.mu.Unlock()
}

// detachLocked ends the handle's live tail, if it has one: the drain
// loop reading the closed channel goes back to the log on disk.
func (h *streamHandle) detachLocked() {
	if h.ch != nil {
		close(h.ch)
		h.ch = nil
	}
}

// attachStream flips the handle to live tailing if the follower has
// caught up with the log end; otherwise it reports the current end so
// the caller keeps reading from disk. The check and the attach happen
// under the same mu hold as every append, so no record can fall between
// disk catch-up and the channel.
func (s *Store) attachStream(h *streamHandle, pos uint64) (ch chan streamRec, lsn uint64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, 0, ErrClosed
	}
	if pos < s.lsn {
		return nil, s.lsn, nil
	}
	h.ch = make(chan streamRec, streamChanCap)
	return h.ch, s.lsn, nil
}

// closeStreamsLocked wakes every attached stream on store close/crash:
// their drain loops see the closed channel, re-check the store and exit
// with ErrClosed, which drops the transport and sends followers back to
// redialing (where they find the restarted leader).
func (s *Store) closeStreamsLocked() {
	for h := range s.streams {
		h.detachLocked()
	}
}

func (s *Store) detachStream(h *streamHandle) {
	s.mu.Lock()
	h.detachLocked()
	s.mu.Unlock()
}

// publishStreamLocked fans freshly committed records out to attached
// followers. Called under mu after the group commit succeeded, so
// followers only ever see records the log has accepted. A follower
// whose channel is full is detached (channel closed); it falls back to
// reading the flushed log from disk. The payloads may sit in the
// store's reused encode buffer, so the streams share a copy, made when
// the first live stream needs it.
func (s *Store) publishStreamLocked(base uint64, payloads [][]byte) {
	var own [][]byte
	for h := range s.streams {
		if h.ch == nil {
			continue
		}
		if own == nil {
			own = make([][]byte, len(payloads))
			for i, p := range payloads {
				own[i] = bytes.Clone(p)
			}
		}
		for i, p := range own {
			select {
			case h.ch <- streamRec{lsn: base + uint64(i), payload: p}:
			default:
				h.detachLocked()
				s.streamLagDrops.Add(1)
			}
			if h.ch == nil {
				break
			}
		}
	}
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
	if s.closed {
		return streamPlan{}, ErrClosed
	}
	plan := streamPlan{
		hello: helloMsg{
			mode:    s.Mode(),
			target:  s.lsn,
			horizon: s.Horizon(),
			schema:  s.Schema(),
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
	case from > s.lsn:
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
// resuming at from, until ctx is done or a write fails. The sequence
// is: handshake (planStream), optional checkpoint bootstrap, catch-up
// from the on-disk log, then live tailing with heartbeats — falling
// back to disk catch-up whenever the follower cannot keep up with the
// in-memory fan-out. Frames are flushed one by one when w is an
// http.Flusher. Safe to call concurrently from any number of followers;
// the store keeps accepting writes throughout.
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

	hb := time.NewTicker(s.opts.heartbeat)
	defer hb.Stop()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Catch up from the on-disk log until we draw level, then
		// rendezvous onto the live channel under the append lock.
		ch, end, err := s.attachStream(h, pos)
		if err != nil {
			return err
		}
		if ch == nil {
			n, err := s.streamFromDisk(fw, h, pos, end)
			if err != nil {
				return err
			}
			pos = n
			continue
		}
	drain:
		for {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case m, ok := <-ch:
				if !ok {
					// Overflowed: the log has everything, go back to disk.
					break drain
				}
				if err := h.send(fw, m.lsn, m.payload); err != nil {
					return err
				}
				pos = m.lsn + 1
			case <-hb.C:
				s.mu.Lock()
				lsn, horizon := s.lsn, s.Horizon()
				s.mu.Unlock()
				if err := fw.writeMsg(encodeHeartbeat(lsn, horizon)); err != nil {
					return err
				}
			}
		}
		s.detachStream(h)
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

// streamFromDisk streams records [pos, end) out of the segment files
// and returns the new position. Committed records are always fully
// flushed to the OS before end was observed, so the prefix read here is
// complete even while the writer keeps appending; scanSegment's torn
// tail (a racing flush) lies beyond end and is never consumed.
func (s *Store) streamFromDisk(fw *frameWriter, h *streamHandle, pos, end uint64) (uint64, error) {
	for pos < end {
		segs, err := listSeqFiles(s.fs, s.dir, segPrefix, segSuffix)
		if err != nil {
			return pos, err
		}
		idx := sort.Search(len(segs), func(i int) bool { return segs[i] > pos })
		if idx == 0 {
			return pos, fmt.Errorf("wal: log position %d is no longer retained", pos)
		}
		start := segs[idx-1]
		data, err := s.fs.ReadFile(filepath.Join(s.dir, segName(start)))
		if err != nil {
			if os.IsNotExist(err) {
				// Pruned between listing and reading; the fence keeps
				// everything >= pos, so a re-list finds the right file.
				continue
			}
			return pos, err
		}
		sc := scanSegment(data)
		if pos-start >= uint64(len(sc.records)) {
			// pos is past this segment's records: the next segment (if
			// rotated by now) holds it; re-list and retry.
			if idx < len(segs) {
				continue
			}
			return pos, nil
		}
		for _, payload := range sc.records[pos-start:] {
			if pos >= end {
				break
			}
			if err := h.send(fw, pos, payload); err != nil {
				return pos, err
			}
			pos++
		}
	}
	return pos, nil
}
