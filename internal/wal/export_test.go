package wal

// WaitCheckpoint returns once no checkpoint is in flight.
func (s *Store) WaitCheckpoint() {
	s.mu.Lock()
	s.waitCheckpointLocked()
	s.mu.Unlock()
}

// CheckpointStopping reports whether the store has asked a checkpoint in
// flight to stop (Close, Crash, a follower resync) and is waiting for it.
func (s *Store) CheckpointStopping() bool { return s.ckptStop.Load() != 0 }
