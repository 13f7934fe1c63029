package iofault_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"hyperprov/internal/iofault"
	"hyperprov/internal/wal"
)

// script is the durable-write shape every wal file goes through: create
// a temp file, write, sync, close, rename into place, then one more
// create standing for whatever the store does next. It returns the
// first error of each step, by operation class, without stopping.
func script(fs wal.FS, dir string) map[iofault.Op]error {
	errs := map[iofault.Op]error{}
	tmp, final := filepath.Join(dir, "blob.tmp"), filepath.Join(dir, "blob")
	f, err := fs.Create(tmp)
	errs[iofault.OpCreate] = err
	if err == nil {
		_, errs[iofault.OpWrite] = f.Write([]byte("abcdefgh"))
		errs[iofault.OpSync] = f.Sync()
		f.Close()
	}
	errs[iofault.OpRename] = fs.Rename(tmp, final)
	if g, err := fs.Create(filepath.Join(dir, "next")); err == nil {
		g.Close()
	} else {
		errs["after"] = err
	}
	return errs
}

// TestInjectedFaults arms each failure mode on each operation of the
// script and checks what the fault promises: the matched operation —
// and only it — answers ErrInjected; Fail has no side effect; a short
// or torn write leaves exactly half the buffer behind; after Torn the
// device is gone and every later operation fails, after the others it
// works again.
func TestInjectedFaults(t *testing.T) {
	ops := []iofault.Op{iofault.OpCreate, iofault.OpWrite, iofault.OpSync, iofault.OpRename}
	modes := map[string]iofault.Mode{"fail": iofault.Fail, "partial": iofault.ShortWrite, "torn": iofault.Torn}
	for _, op := range ops {
		for name, mode := range modes {
			t.Run(string(op)+"/"+name, func(t *testing.T) {
				dir := t.TempDir()
				fs := iofault.Wrap(wal.OSFS{})
				fs.Inject(iofault.Fault{Op: op, Match: "blob", Nth: 1, Mode: mode})
				errs := script(fs, dir)
				if !fs.Tripped() {
					t.Fatal("the fault never fired")
				}
				if !errors.Is(errs[op], iofault.ErrInjected) {
					t.Fatalf("%s answered %v, want ErrInjected", op, errs[op])
				}
				// Operations before the fault succeed; the ones after it do
				// unless the device died (or the fault left them nothing to
				// work on: no file after a failed create).
				dead := mode == iofault.Torn
				for _, o := range ops {
					if o == op {
						break
					}
					if errs[o] != nil {
						t.Fatalf("%s before the fault answered %v", o, errs[o])
					}
				}
				if after := errs["after"]; dead != errors.Is(after, iofault.ErrInjected) {
					t.Fatalf("torn=%v, but the operation after the fault answered %v", dead, after)
				}
				if op == iofault.OpWrite {
					want := ""
					if mode != iofault.Fail {
						want = "abcd"
					}
					// A dead device refuses the rename too, so the bytes are
					// still under the temp name.
					path := filepath.Join(dir, "blob")
					if dead {
						path += ".tmp"
					}
					if got, err := os.ReadFile(path); err != nil || string(got) != want {
						t.Fatalf("a %s write left %q (%v), want %q", name, got, err, want)
					}
				}
				if op == iofault.OpRename {
					if _, err := os.Stat(filepath.Join(dir, "blob")); !os.IsNotExist(err) {
						t.Fatalf("a failed rename still produced its target (%v)", err)
					}
					if got, err := os.ReadFile(filepath.Join(dir, "blob.tmp")); err != nil || string(got) != "abcdefgh" {
						t.Fatalf("a failed rename lost its source: %q, %v", got, err)
					}
				}
			})
		}
	}
}

// TestFaultSelection: Nth counts only the operations of the fault's
// class whose path contains Match, every operation is counted whether
// it failed or not, and Inject re-arms.
func TestFaultSelection(t *testing.T) {
	dir := t.TempDir()
	fs := iofault.Wrap(wal.OSFS{})
	create := func(name string) error {
		f, err := fs.Create(filepath.Join(dir, name))
		if err == nil {
			f.Close()
		}
		return err
	}
	fs.Inject(iofault.Fault{Op: iofault.OpCreate, Match: "seg", Nth: 2})
	for i, step := range []struct {
		name string
		fail bool
	}{{"seg-1", false}, {"META", false}, {"seg-2", true}, {"seg-3", false}} {
		if err := create(step.name); errors.Is(err, iofault.ErrInjected) != step.fail {
			t.Fatalf("step %d: create %s answered %v, want injected=%v", i, step.name, err, step.fail)
		}
	}
	if got := fs.Count(iofault.OpCreate); got != 4 {
		t.Fatalf("%d creates counted, want 4", got)
	}
	if err := fs.SyncDir(dir); err != nil || fs.Count(iofault.OpSyncDir) != 1 {
		t.Fatalf("an unfaulted class: %v, counted %d", err, fs.Count(iofault.OpSyncDir))
	}
	fs.Inject(iofault.Fault{Op: iofault.OpCreate, Nth: 1})
	if fs.Tripped() {
		t.Fatal("a re-armed fault reports tripped")
	}
	if err := create("META"); !errors.Is(err, iofault.ErrInjected) || !fs.Tripped() {
		t.Fatalf("the re-armed fault did not fire: %v", err)
	}
}
