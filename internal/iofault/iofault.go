// Package iofault wraps the wal.FS filesystem abstraction with
// deterministic fault injection: the Nth operation matching a spec
// fails outright, writes short, or takes the whole "device" down. The
// sweep pattern — run a workload once to count operations, then rerun
// it once per injection point — lets tests prove that every possible
// I/O failure yields a typed error or read-only degradation, never a
// panic or silent corruption.
package iofault

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"

	"hyperprov/internal/wal"
)

// ErrInjected is the error returned by every injected failure.
var ErrInjected = errors.New("iofault: injected failure")

// Op identifies a filesystem operation class.
type Op string

// Operation classes. OpWrite and OpSync apply to file handles and
// match on the name the file was opened with.
const (
	OpCreate     Op = "create"
	OpOpenAppend Op = "open-append"
	OpOpen       Op = "open"
	OpWrite      Op = "write"
	OpSync       Op = "sync"
	OpReadFile   Op = "read-file"
	OpRename     Op = "rename"
	OpRemove     Op = "remove"
	OpTruncate   Op = "truncate"
	OpSyncDir    Op = "sync-dir"
)

// Mode is how a matched operation fails.
type Mode int

const (
	// Fail returns ErrInjected with no side effect.
	Fail Mode = iota
	// ShortWrite writes half the buffer, then returns ErrInjected
	// (only meaningful for OpWrite; other ops treat it as Fail).
	ShortWrite
	// Torn writes half the buffer, returns ErrInjected, and fails
	// every subsequent operation — the device is gone.
	Torn
)

// Fault selects the Nth operation of class Op whose target path
// contains Match (empty matches everything).
type Fault struct {
	Op    Op
	Match string
	Nth   int // 1-based
	Mode  Mode
}

// FS wraps an inner wal.FS with one injectable fault. It also counts
// every operation by class, so a fault-free first run sizes the sweep.
type FS struct {
	inner wal.FS

	mu      sync.Mutex
	fault   Fault
	armed   bool
	matched int
	tripped bool
	dead    bool
	counts  map[Op]int
}

var _ wal.FS = (*FS)(nil)

// Wrap builds a fault-injecting view of inner with no fault armed.
func Wrap(inner wal.FS) *FS {
	return &FS{inner: inner, counts: make(map[Op]int)}
}

// Inject arms the fault and resets match state.
func (f *FS) Inject(fault Fault) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fault = fault
	f.armed = true
	f.matched = 0
	f.tripped = false
	f.dead = false
}

// Tripped reports whether the armed fault has fired.
func (f *FS) Tripped() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.tripped
}

// Count returns how many operations of class op have been issued since
// Wrap (faulted or not).
func (f *FS) Count(op Op) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.counts[op]
}

// check records one operation and reports the mode to fail it with, if
// any.
func (f *FS) check(op Op, name string) (Mode, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.counts[op]++
	if f.dead {
		return Fail, true
	}
	if !f.armed || f.tripped || op != f.fault.Op || !strings.Contains(name, f.fault.Match) {
		return 0, false
	}
	f.matched++
	if f.matched != f.fault.Nth {
		return 0, false
	}
	f.tripped = true
	if f.fault.Mode == Torn {
		f.dead = true
	}
	return f.fault.Mode, true
}

func injected(op Op, name string) error {
	return fmt.Errorf("%w: %s %s", ErrInjected, op, name)
}

// MkdirAll implements wal.FS (never faulted: it runs before the store
// exists).
func (f *FS) MkdirAll(path string) error { return f.inner.MkdirAll(path) }

// Create implements wal.FS.
func (f *FS) Create(name string) (wal.File, error) {
	if _, fail := f.check(OpCreate, name); fail {
		return nil, injected(OpCreate, name)
	}
	inner, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &file{fs: f, name: name, inner: inner}, nil
}

// OpenAppend implements wal.FS.
func (f *FS) OpenAppend(name string) (wal.File, error) {
	if _, fail := f.check(OpOpenAppend, name); fail {
		return nil, injected(OpOpenAppend, name)
	}
	inner, err := f.inner.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &file{fs: f, name: name, inner: inner}, nil
}

// Open implements wal.FS. Reads through the file it opens are not
// faulted.
func (f *FS) Open(name string) (io.ReadCloser, error) {
	if _, fail := f.check(OpOpen, name); fail {
		return nil, injected(OpOpen, name)
	}
	return f.inner.Open(name)
}

// ReadFile implements wal.FS.
func (f *FS) ReadFile(name string) ([]byte, error) {
	if _, fail := f.check(OpReadFile, name); fail {
		return nil, injected(OpReadFile, name)
	}
	return f.inner.ReadFile(name)
}

// ReadDir implements wal.FS (never faulted).
func (f *FS) ReadDir(dir string) ([]string, error) { return f.inner.ReadDir(dir) }

// Rename implements wal.FS.
func (f *FS) Rename(oldpath, newpath string) error {
	if _, fail := f.check(OpRename, newpath); fail {
		return injected(OpRename, newpath)
	}
	return f.inner.Rename(oldpath, newpath)
}

// Remove implements wal.FS.
func (f *FS) Remove(name string) error {
	if _, fail := f.check(OpRemove, name); fail {
		return injected(OpRemove, name)
	}
	return f.inner.Remove(name)
}

// Truncate implements wal.FS.
func (f *FS) Truncate(name string, size int64) error {
	if _, fail := f.check(OpTruncate, name); fail {
		return injected(OpTruncate, name)
	}
	return f.inner.Truncate(name, size)
}

// SyncDir implements wal.FS.
func (f *FS) SyncDir(dir string) error {
	if _, fail := f.check(OpSyncDir, dir); fail {
		return injected(OpSyncDir, dir)
	}
	return f.inner.SyncDir(dir)
}

// file routes Write/Sync through the injector under the name the file
// was opened with.
type file struct {
	fs    *FS
	name  string
	inner wal.File
}

func (w *file) Write(p []byte) (int, error) {
	mode, fail := w.fs.check(OpWrite, w.name)
	if !fail {
		return w.inner.Write(p)
	}
	if (mode == ShortWrite || mode == Torn) && len(p) > 1 {
		n, err := w.inner.Write(p[:len(p)/2])
		if err != nil {
			return n, err
		}
		return n, injected(OpWrite, w.name)
	}
	return 0, injected(OpWrite, w.name)
}

func (w *file) Sync() error {
	if _, fail := w.fs.check(OpSync, w.name); fail {
		return injected(OpSync, w.name)
	}
	return w.inner.Sync()
}

func (w *file) Close() error { return w.inner.Close() }
