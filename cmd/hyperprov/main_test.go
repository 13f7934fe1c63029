package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"hyperprov/internal/engine"
	"hyperprov/internal/provstore"
)

// childEnv makes the test binary run the command itself: TestMain hands
// over to main with the arguments the parent test gave it, so the tests
// below drive both entry points — flags, log lines, exit codes — as a
// user does.
const childEnv = "HYPERPROV_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func command(args ...string) (*exec.Cmd, *bytes.Buffer) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	return cmd, &stderr
}

// hyperprov runs the one-shot command to its end.
func hyperprov(t *testing.T, args ...string) (exit int, stderr string) {
	t.Helper()
	cmd, errb := command(args...)
	if err := cmd.Run(); err != nil && cmd.ProcessState == nil {
		t.Fatal(err)
	}
	return cmd.ProcessState.ExitCode(), errb.String()
}

// serve starts `hyperprov serve` on a loopback port of its own and waits
// for it to answer; stop interrupts it and returns how it exited and
// what it logged.
func serve(t *testing.T, args ...string) (base string, stop func() (exit int, log string)) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	cmd, errb := command(append([]string{"serve", "-addr", addr}, args...)...)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan struct{})
	go func() { _ = cmd.Wait(); close(exited) }()
	stop = func() (int, string) {
		_ = cmd.Process.Signal(syscall.SIGINT)
		select {
		case <-exited:
		case <-time.After(30 * time.Second):
			_ = cmd.Process.Kill()
			<-exited
			t.Errorf("serve %v did not stop on SIGINT", args)
		}
		return cmd.ProcessState.ExitCode(), errb.String()
	}
	base = "http://" + addr
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if resp, err := http.Get(base + "/healthz"); err == nil {
			resp.Body.Close()
			return base, stop
		}
		select {
		case <-exited:
			t.Fatalf("serve %v exited %d before it listened:\n%s", args, cmd.ProcessState.ExitCode(), errb)
		default:
		}
		if time.Now().After(deadline) {
			stop()
			t.Fatalf("serve %v never listened:\n%s", args, errb)
		}
	}
}

const (
	productsCSV = "Product:string,Category:string,Price:int\n" +
		"Tennis Racket,Sport,70\nKids mnt bike,Sport,120\n\"Lego, bricks\",Kids,90\nKids mnt bike,Kids,120\n"
	productsLog = "BEGIN p;\nUPDATE Products SET Category = 'Bicycles' WHERE Product = 'Kids mnt bike';\nCOMMIT;\n" +
		"DELETE FROM Products WHERE Category = 'Sport';\n"
)

// TestSourcesThroughBothCommands: each kind of source — CSV files, a
// snapshot, a data directory fresh and recovered — opens to the same
// state through the one-shot command and through serve, which both
// refuse a snapshot beside a data directory in the same words; serve
// logs what it always did and leaves on SIGINT with exit code 0.
func TestSourcesThroughBothCommands(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	for name, text := range map[string]string{"products.csv": productsCSV, "txns.sql": productsLog} {
		if err := os.WriteFile(path(name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	csv, log := []string{"-data", "Products=" + path("products.csv")}, []string{"-log", path("txns.sql")}
	args := func(parts ...[]string) (all []string) {
		for _, p := range parts {
			all = append(all, p...)
		}
		return all
	}
	saved := func(name string, src ...[]string) []byte {
		t.Helper()
		if exit, stderr := hyperprov(t, args(append(src, []string{"-save-snapshot", path(name)})...)...); exit != 0 {
			t.Fatalf("hyperprov %v: exit %d\n%s", src, exit, stderr)
		}
		data, err := os.ReadFile(path(name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	want := saved("csv.snap", csv, log)
	if !bytes.HasPrefix(want, []byte("HPRV3\n")) {
		t.Fatalf("-save-snapshot wrote %q…", want[:min(len(want), 8)])
	}
	snapshot, store := []string{"-load-snapshot", path("csv.snap")}, []string{"-data-dir", path("d"), "-sync", "never"}
	for _, run := range []struct {
		name string
		src  [][]string
	}{
		{"snapshot", [][]string{snapshot}},
		{"fresh data directory", [][]string{csv, store, log}},
		{"recovered data directory", [][]string{store}},
		{"data directory recovered into 4 shards", [][]string{store, {"-shards", "4"}}},
	} {
		if got := saved("again.snap", run.src...); !bytes.Equal(got, want) {
			t.Errorf("run from the %s: state differs from the CSV run's", run.name)
		}
	}

	for name, src := range map[string][][]string{
		"csv":            {csv, log},
		"snapshot":       {snapshot},
		"data directory": {store},
	} {
		base, stop := serve(t, args(src...)...)
		var got []byte
		// -log is ingested behind the listener: its state arrives.
		for deadline := time.Now().Add(30 * time.Second); !bytes.Equal(got, want) && time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
			resp, err := http.Get(base + "/v1/snapshot")
			if err != nil {
				t.Fatal(err)
			}
			got, _ = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		if !bytes.Equal(got, want) {
			t.Errorf("serve from the %s: /v1/snapshot differs from the CSV run's state", name)
		}
		exit, logged := stop()
		lines := []string{"shutting down (grace 10s)", "bye"}
		switch name {
		case "csv":
			lines = append(lines, "serving 4 rows (Normal form) on ", "boot {Source:csv Rows:4", "ingested 2 transactions from "+path("txns.sql"))
		case "snapshot":
			lines = append(lines, "serving 5 rows (Normal form) on ", "boot {Source:checkpoint")
		case "data directory":
			lines = append(lines, fmt.Sprintf("persistent store %s at LSN 2 (sync=never)", path("d")), "serving 5 rows (Normal form) on ", "boot {Source:checkpoint")
		}
		for _, line := range lines {
			if !strings.Contains(logged, line) {
				t.Errorf("serve from the %s does not log %q:\n%s", name, line, logged)
			}
		}
		if exit != 0 {
			t.Errorf("serve from the %s: exit %d after SIGINT\n%s", name, exit, logged)
		}
	}

	const conflict = "-load-snapshot cannot be combined with -data-dir (the directory has its own checkpoints)\n"
	both := args(snapshot, store)
	if exit, stderr := hyperprov(t, both...); exit != 1 || stderr != "hyperprov: "+conflict {
		t.Errorf("hyperprov %v: exit %d, %q", both, exit, stderr)
	}
	if exit, stderr := hyperprov(t, append([]string{"serve"}, both...)...); exit != 1 || stderr != "hyperprov serve: "+conflict {
		t.Errorf("hyperprov serve %v: exit %d, %q", both, exit, stderr)
	}
	if exit, stderr := hyperprov(t, csv...); exit != 2 || !strings.HasPrefix(stderr, "usage: hyperprov -data Rel=file.csv -log txns.sql [flags]\n") {
		t.Errorf("hyperprov without a log: exit %d, %q", exit, stderr)
	}
	if exit, stderr := hyperprov(t, "serve"); exit != 1 || !strings.HasSuffix(stderr, "hyperprov serve: need -data Rel=file.csv, -load-snapshot, or -data-dir\n") {
		t.Errorf("hyperprov serve without a source: exit %d, %q", exit, stderr)
	}
}

func snapshotBytes(t *testing.T, src provstore.Source) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := provstore.SaveSnapshot(&buf, src); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRestartDoesNotReadCSV: serve -data R=r.csv -data-dir d bootstraps d
// from the CSV once; run again with the same command line after the CSV
// has been deleted it recovers the same state — a restart neither parses
// nor needs what the directory was seeded from — where a fresh directory
// still refuses to start without the file.
func TestRestartDoesNotReadCSV(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "products.csv")
	if err := os.WriteFile(csvPath, []byte(productsCSV), 0o644); err != nil {
		t.Fatal(err)
	}
	open := func(sub string) (engine.DB, func() error, error) {
		src := source{data: dataFlags{"Products": csvPath}, mode: "nf", syncPolicy: "never"}
		if sub != "" {
			src.dataDir = filepath.Join(dir, sub)
		}
		e, err := src.open()
		if err != nil {
			return nil, nil, err
		}
		if names := e.Schema().Names(); len(names) != 1 || names[0] != "Products" {
			t.Fatalf("relations %v", names)
		}
		return e, func() error {
			ckptErr, closeErr := finish(e)
			if ckptErr != nil {
				t.Error(ckptErr)
			}
			return closeErr
		}, nil
	}
	e, closeStore, err := open("d")
	if err != nil {
		t.Fatal(err)
	}
	if b := engine.BootOf(e); b.Source != "csv" || b.Rows != 4 || b.ReadMs <= 0 || b.TotalMs < b.ReadMs {
		t.Errorf("boot record of the bootstrap: %+v", b)
	}
	want := snapshotBytes(t, e)
	mem, _, err := open("")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapshotBytes(t, mem), want) {
		t.Error("the in-memory engine and the bootstrapped store differ")
	}
	if err := closeStore(); err != nil {
		t.Fatal(err)
	}

	if err := os.Remove(csvPath); err != nil {
		t.Fatal(err)
	}
	e, closeStore, err = open("d")
	if err != nil {
		t.Fatalf("restart without the CSV: %v", err)
	}
	defer closeStore()
	if !bytes.Equal(snapshotBytes(t, e), want) {
		t.Error("the restarted store differs from the bootstrapped one")
	}
	if b := engine.BootOf(e); b.Source != "checkpoint" || b.ReadMs != 0 {
		t.Errorf("boot record of the restart: %+v", b)
	}
	if _, _, err := open("fresh"); err == nil {
		t.Error("a fresh directory started without its CSV")
	}
}
