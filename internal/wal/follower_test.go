package wal

import (
	"context"
	"io"
	"testing"
	"time"

	"hyperprov/internal/engine"
	"hyperprov/internal/workload"
)

// TestFollowerClosesWhateverItsSourceDoes: a source whose reader ignores
// the session's context — a pipe that goes silent after the hello and is
// never closed by its writer — does not hold Follower.Close, even with the
// stall timeout off: the session ends its blocked read by closing the
// transport.
func TestFollowerClosesWhateverItsSourceDoes(t *testing.T) {
	pr, pw := io.Pipe()
	defer pw.Close()
	go func() {
		fw := &frameWriter{w: pw}
		_ = fw.writeMsg(encodeHello(helloMsg{mode: engine.ModeNormalForm, schema: workload.Schema()}))
	}()
	src := func(context.Context, uint64) (io.ReadCloser, error) { return pr, nil }
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	f, err := OpenFollower(ctx, t.TempDir(), src, WithStreamStallTimeout(0))
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() { closed <- f.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("Follower.Close is still waiting a second after it was called")
	}
}
