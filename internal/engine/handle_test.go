package engine_test

import (
	"bytes"
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
	"hyperprov/internal/engine"
)

// engine.Reader is sealed. handReader writes every exported method of
// it out and still is none: the unexported one cannot be declared from
// another package. embedReader has it the only way such a package can —
// by embedding a Reader, as wal.Store does through its Handle — so
// whatever is a Reader pins a view of an engine.
type handReader struct{}

func (handReader) Mode() engine.Mode                             { return 0 }
func (handReader) Schema() *db.Schema                            { return nil }
func (handReader) Relations() []string                           { return nil }
func (handReader) Annotation(string, db.Tuple) *core.Expr        { return nil }
func (handReader) NF(string, db.Tuple) *core.NF                  { return nil }
func (handReader) EachRow(string, func(db.Tuple, *core.Expr))    {}
func (handReader) Rows(func(string, db.Tuple, *core.Expr))       {}
func (handReader) Select(string, db.Pattern) ([]db.Tuple, error) { return nil, nil }
func (handReader) NumRows() int                                  { return 0 }
func (handReader) SupportSize() int                              { return 0 }
func (handReader) ProvSize() int64                               { return 0 }
func (handReader) ProvDAGSize() int64                            { return 0 }

type embedReader struct{ engine.Reader }

var _ engine.Reader = embedReader{}

func TestReaderIsSealed(t *testing.T) {
	if _, is := any(handReader{}).(engine.Reader); is {
		t.Fatal("a type of another package implements engine.Reader without embedding one")
	}
}

// handleEvents records what a handle's subscriber hears; the hook runs
// on committing goroutines, so the record is locked.
type handleEvents struct {
	mu  sync.Mutex
	evs []engine.CommitEvent
}

func (r *handleEvents) hook(ev engine.CommitEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ev.Rows = nil // borrowed for the call
	r.evs = append(r.evs, ev)
}

func (r *handleEvents) take() []engine.CommitEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	evs := r.evs
	r.evs = nil
	return evs
}

// TestHandleSwap: a view pinned before a Swap keeps reading the engine
// it was taken from, byte for byte, while reads through the handle move
// to the new engine; the hook moves with the engine, hears each Swap as
// exactly one CommitReset at the new engine's horizon and nothing more
// from the engine replaced, even though that one keeps committing; the
// swap count rises by one per Swap.
func TestHandleSwap(t *testing.T) {
	initial, txns := mvccWorkload(t)
	half := len(txns) / 2
	e1 := engine.New(engine.ModeNormalForm, initial)
	applyTxns(t, e1, txns[:half])
	e2 := engine.New(engine.ModeNormalForm, initial)
	applyTxns(t, e2, txns)

	var h engine.Handle
	if h.Swaps() != 0 || h.Engine() != nil {
		t.Fatalf("a zero handle reports %d swaps and engine %v", h.Swaps(), h.Engine())
	}
	h.Swap(e1)
	var rec handleEvents
	h.SetCommitHook(rec.hook)
	if h.Swaps() != 1 || h.Engine() != e1 {
		t.Fatalf("after the first swap: %d swaps, serving %p, want 1 and %p", h.Swaps(), h.Engine(), e1)
	}

	// The hook is on the engine served: a commit on it is heard.
	if err := e1.ApplyTransaction(&txns[half]); err != nil {
		t.Fatal(err)
	}
	if evs := rec.take(); len(evs) != 1 || evs[0].Kind != engine.CommitTxn || evs[0].Epoch != e1.Horizon() {
		t.Fatalf("one commit on the served engine was heard as %+v", evs)
	}

	pinned := h.At(h.Horizon())
	before, wantOld := snapshotBytes(t, pinned), snapshotBytes(t, e1)
	if !bytes.Equal(before, wantOld) {
		t.Fatal("a view through the handle differs from the engine it serves")
	}

	h.Swap(e2)
	if h.Swaps() != 2 || h.Engine() != e2 {
		t.Fatalf("after the second swap: %d swaps, serving %p, want 2 and %p", h.Swaps(), h.Engine(), e2)
	}
	evs := rec.take()
	if len(evs) != 1 || evs[0].Kind != engine.CommitReset || evs[0].Epoch != e2.Horizon() {
		t.Fatalf("a swap was announced as %+v, want one reset at horizon %d", evs, e2.Horizon())
	}

	// The replaced engine keeps committing; neither the pinned view nor
	// the subscriber notices.
	applyTxns(t, e1, txns[half+1:])
	if got := snapshotBytes(t, pinned); !bytes.Equal(got, before) {
		t.Fatal("a view pinned before the swap changed after it")
	}
	if evs := rec.take(); len(evs) != 0 {
		t.Fatalf("the replaced engine was still heard: %+v", evs)
	}
	if got, want := snapshotBytes(t, &h), snapshotBytes(t, e2); !bytes.Equal(got, want) {
		t.Fatal("reads through the handle do not answer from the new engine")
	}
	if err := e2.ApplyTransaction(&txns[0]); err != nil {
		t.Fatal(err)
	}
	if evs := rec.take(); len(evs) != 1 || evs[0].Kind != engine.CommitTxn || evs[0].Epoch != e2.Horizon() {
		t.Fatalf("one commit on the new engine was heard as %+v", evs)
	}

	// An uninstalled hook hears nothing, not even a swap.
	h.SetCommitHook(nil)
	h.Swap(e1)
	if err := e1.ApplyTransaction(&txns[0]); err != nil {
		t.Fatal(err)
	}
	if evs := rec.take(); len(evs) != 0 || h.Swaps() != 3 {
		t.Fatalf("after uninstalling: heard %+v, %d swaps", evs, h.Swaps())
	}
}

// TestHandleSwapConcurrent swaps between two committing engines while
// readers read through the handle and through views they pinned: under
// -race this is the check that a swap needs no lock on the read side.
// Every event heard between two resets comes from the engine the earlier
// of them announced, in its own epoch order — the first engine, which
// goes on committing on a goroutine of its own once replaced, is never
// heard again — and the swap count never goes down.
func TestHandleSwapConcurrent(t *testing.T) {
	initial, txns := mvccWorkload(t)
	engines := []*engine.Engine{
		engine.New(engine.ModeNormalForm, initial),
		engine.New(engine.ModeNormalForm, initial),
	}
	replaced := engine.New(engine.ModeNormalForm, initial)
	var h engine.Handle
	h.Swap(replaced)

	// The subscriber checks the stream as it arrives: after a reset at
	// horizon hz, epochs rise one by one from hz — an event of the other
	// engine would break the count.
	var next atomic.Uint64
	var heard, resets atomic.Int64
	h.SetCommitHook(func(ev engine.CommitEvent) {
		heard.Add(1)
		if ev.Kind == engine.CommitReset {
			resets.Add(1)
		} else if ev.Epoch != next.Load() {
			t.Errorf("heard epoch %d, the engine being served is at %d", ev.Epoch, next.Load())
		}
		next.Store(ev.Epoch + 1)
	})

	ctx, cancel := context.WithCancel(context.Background())
	var readers sync.WaitGroup
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var last uint64
			for ctx.Err() == nil {
				if n := h.Swaps(); n < last {
					t.Errorf("swap count went from %d to %d", last, n)
				} else {
					last = n
				}
				v := h.At(h.Horizon())
				rows := readerRows(v)
				_ = h.NumRows() // whichever engine answers
				if !slices.Equal(readerRows(v), rows) {
					t.Error("a pinned view changed under a reader")
				}
			}
		}()
	}
	// One writer: it applies to the engine it last swapped in, so every
	// commit is on the engine being served, as a store's writer would.
	const swaps = 20
	for i := 0; i < swaps; i++ {
		e := engines[i%2]
		h.Swap(e)
		if i == 0 {
			readers.Add(1)
			go func() {
				defer readers.Done()
				for k := 0; ctx.Err() == nil; k++ {
					if err := replaced.ApplyTransaction(&txns[k%len(txns)]); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		for j := 0; j < 3; j++ {
			if err := e.ApplyTransaction(&txns[(3*i+j)%len(txns)]); err != nil {
				t.Fatal(err)
			}
		}
	}
	cancel()
	readers.Wait()
	if got := h.Swaps(); got != 1+swaps {
		t.Fatalf("%d swaps counted, want %d", got, 1+swaps)
	}
	if resets.Load() != swaps || heard.Load() != swaps+3*swaps {
		t.Fatalf("heard %d events, %d of them resets; want %d and %d", heard.Load(), resets.Load(), 4*swaps, swaps)
	}
}
