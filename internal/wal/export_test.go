package wal

import (
	"bytes"
	"sync/atomic"

	"hyperprov/internal/engine"
)

// WaitCheckpoint returns once no checkpoint is in flight.
func (s *Store) WaitCheckpoint() {
	s.mu.Lock()
	s.waitCheckpointLocked()
	s.mu.Unlock()
}

// CheckpointStopping reports whether the store has asked a checkpoint in
// flight to stop (Close, Crash, a follower resync) and is waiting for it.
func (s *Store) CheckpointStopping() bool { return s.ckptStop.Load() != 0 }

// LoadCheckpoint loads a checkpoint file's bytes as recovery does.
var LoadCheckpoint = loadCheckpoint

// ShipCheckpoint bootstraps a follower in the fresh directory dir from
// leader's checkpoint at lsn as the replication stream carries it: the
// file read and cut into frames (streamCheckpoint), the frames collected
// and installed (collectCheckpoint, resyncFromCheckpoint). The leader
// may be closed. The caller closes the follower's store.
func ShipCheckpoint(leader *Store, dir string, lsn uint64) (*Store, error) {
	var stream bytes.Buffer
	if err := leader.streamCheckpoint(&frameWriter{w: &stream}, lsn); err != nil {
		return nil, err
	}
	ckpt, err := (*Follower)(nil).collectCheckpoint(newFrameReader(&stream, ErrStreamCorrupt).next, lsn)
	if err != nil {
		return nil, err
	}
	s := &Store{Handle: new(engine.Handle), dir: dir, fs: OSFS{}, release: func() {}, opts: newOptions(nil)}
	var resyncs atomic.Uint64
	if err := s.resyncFromCheckpoint(leader.Mode(), leader.Schema(), lsn, ckpt, &resyncs); err != nil {
		return nil, err
	}
	return s, nil
}
