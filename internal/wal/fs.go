package wal

import (
	"io"
	"os"
	"path/filepath"
)

// File is the writable-file surface the log and checkpoint writers
// need. *os.File satisfies it; the iofault package wraps it to inject
// write/sync failures.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// FS abstracts the filesystem operations of the durability subsystem so
// tests can inject faults deterministically (package iofault). The
// default implementation is the real filesystem (OSFS).
type FS interface {
	MkdirAll(path string) error
	// Create opens name for writing, truncating any existing file.
	Create(name string) (File, error)
	// OpenAppend opens name for appending, creating it if absent.
	OpenAppend(name string) (File, error)
	// Open opens name for reading only.
	Open(name string) (io.ReadCloser, error)
	ReadFile(name string) ([]byte, error)
	// ReadDir lists the names (not paths) of the directory entries.
	ReadDir(dir string) ([]string, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Truncate(name string, size int64) error
	// SyncDir fsyncs the directory itself, making renames and removals
	// durable.
	SyncDir(dir string) error
}

// OSFS is the real filesystem.
type OSFS struct{}

// MkdirAll implements FS.
func (OSFS) MkdirAll(path string) error { return os.MkdirAll(path, 0o755) }

// Create implements FS.
func (OSFS) Create(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
}

// OpenAppend implements FS.
func (OSFS) OpenAppend(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// Open implements FS.
func (OSFS) Open(name string) (io.ReadCloser, error) { return os.Open(name) }

// ReadFile implements FS.
func (OSFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// ReadDir implements FS.
func (OSFS) ReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names, nil
}

// Rename implements FS.
func (OSFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS.
func (OSFS) Remove(name string) error { return os.Remove(name) }

// Truncate implements FS.
func (OSFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

// SyncDir implements FS.
func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(filepath.Clean(dir))
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
