package wal_test

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
	"time"

	"hyperprov/internal/engine"
	"hyperprov/internal/wal"
)

const (
	tortureDirEnv  = "HYPERPROV_WAL_TORTURE_DIR"
	tortureCkptEnv = "HYPERPROV_WAL_TORTURE_CKPT_EVERY"
)

// TestCrashTortureChildProcess is the re-exec target of the torture
// harness: it opens (or recovers) the store in the directory named by
// the environment, continues the deterministic workload from the
// recovered LSN, and prints "ACK <n>" after every acknowledged
// transaction until it finishes or is SIGKILLed by the parent.
func TestCrashTortureChildProcess(t *testing.T) {
	dir := os.Getenv(tortureDirEnv)
	if dir == "" {
		t.Skip("torture child: run by TestCrashTorture")
	}
	ckptEvery, err := strconv.ParseUint(os.Getenv(tortureCkptEnv), 10, 64)
	if err != nil {
		t.Fatalf("%s: %v", tortureCkptEnv, err)
	}
	initial, txns := smallWorkload(t)
	st, err := wal.Open(dir,
		wal.WithMode(engine.ModeNormalForm),
		wal.WithInitialDatabase(initial),
		wal.WithSync(wal.SyncAlways),
		wal.WithSegmentSize(2048),
		wal.WithCheckpointEvery(ckptEvery),
	)
	if err != nil {
		fmt.Printf("CHILD-ERR open: %v\n", err)
		t.Fatalf("open: %v", err)
	}
	start := int(st.Stats().LSN)
	fmt.Printf("RECOVERED %d\n", start)
	for i := start; i < len(txns); i++ {
		if err := st.ApplyTransaction(&txns[i]); err != nil {
			fmt.Printf("CHILD-ERR apply %d: %v\n", i, err)
			t.Fatalf("apply %d: %v", i, err)
		}
		fmt.Printf("ACK %d\n", i+1)
	}
	fmt.Println("DONE")
	// Exit without Close: the final round's parent verifies that even
	// an unclean exit after DONE loses nothing (everything is synced).
	st.Crash()
}

// TestCrashTorture repeatedly SIGKILLs a child process mid-workload,
// reopens the data directory, and verifies (a) every transaction the
// child acknowledged survived and (b) the recovered state is
// byte-identical to a never-crashed oracle at the recovered prefix.
// The final round lets the child finish and checks full equality.
func TestCrashTorture(t *testing.T) { crashTorture(t, 23) }

// TestCrashTortureBackgroundCheckpoints is the same with a checkpoint
// begun every 8 records: the child is then inside a background checkpoint
// — rotated, encoding, renaming or pruning — for much of its life, and
// that is where the SIGKILLs land.
func TestCrashTortureBackgroundCheckpoints(t *testing.T) { crashTorture(t, 8) }

func crashTorture(t *testing.T, ckptEvery int) {
	if testing.Short() {
		t.Skip("subprocess torture test")
	}
	if os.Getenv(tortureDirEnv) != "" {
		t.Skip("already in torture child")
	}
	initial, txns := smallWorkload(t)
	dir := t.TempDir()

	lastAcked := 0
	for round := 0; round < 4; round++ {
		final := round == 3
		cmd := exec.Command(os.Args[0], "-test.run=TestCrashTortureChildProcess$", "-test.v")
		cmd.Env = append(os.Environ(), tortureDirEnv+"="+dir, tortureCkptEnv+"="+strconv.Itoa(ckptEvery))
		out, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		cmd.Stderr = cmd.Stdout
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		// Read acks; kill mid-stream on non-final rounds.
		killAfter := lastAcked + 10 + round*7
		sc := bufio.NewScanner(out)
		done := false
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "ACK "):
				n, err := strconv.Atoi(strings.TrimPrefix(line, "ACK "))
				if err != nil {
					t.Fatalf("bad ack line %q", line)
				}
				lastAcked = n
				if !final && n >= killAfter {
					_ = cmd.Process.Kill()
				}
			case strings.HasPrefix(line, "RECOVERED "):
				n, _ := strconv.Atoi(strings.TrimPrefix(line, "RECOVERED "))
				if n < lastAcked {
					t.Fatalf("round %d: child recovered %d, but %d were acked", round, n, lastAcked)
				}
			case line == "DONE":
				done = true
			case strings.HasPrefix(line, "CHILD-ERR"):
				t.Fatalf("round %d: %s", round, line)
			}
		}
		werr := cmd.Wait()
		if final {
			if !done {
				t.Fatalf("final round: child did not finish: %v", werr)
			}
			lastAcked = len(txns)
		}

		// Parent-side verification between rounds.
		st, err := wal.Open(dir)
		if err != nil {
			t.Fatalf("round %d: parent reopen: %v", round, err)
		}
		lsn := int(st.Stats().LSN)
		if lsn < lastAcked {
			t.Fatalf("round %d: silent loss: child acked %d, parent recovered %d", round, lastAcked, lsn)
		}
		if lsn > len(txns) {
			t.Fatalf("round %d: recovered %d records, only %d exist", round, lsn, len(txns))
		}
		oracle := oracleAt(t, engine.ModeNormalForm, initial, txns, lsn)
		requireSameBytes(t, fmt.Sprintf("round %d", round), snapshotOf(t, oracle), snapshotOf(t, st))
		if err := st.Close(); err != nil {
			t.Fatalf("round %d: close: %v", round, err)
		}
		lastAcked = lsn
		if final {
			break
		}
		// Give the OS a beat to reap the child before relocking.
		time.Sleep(10 * time.Millisecond)
	}
}
