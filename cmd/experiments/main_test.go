package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// childEnv makes the test binary run the command itself: TestMain hands
// over to main with the arguments the parent test gave it, so the tests
// below drive its flags and exit codes as a user does.
const childEnv = "EXPERIMENTS_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// experiments runs the command to its end and returns its exit code and
// standard error.
func experiments(t *testing.T, args ...string) (exit int, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var errb strings.Builder
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil && cmd.ProcessState == nil {
		t.Fatal(err)
	}
	return cmd.ProcessState.ExitCode(), errb.String()
}

// TestAllAtTinyScale runs every experiment at scale 0.002 into -out and
// checks that each one wrote its table.
func TestAllAtTinyScale(t *testing.T) {
	out := filepath.Join(t.TempDir(), "experiments.md")
	if exit, stderr := experiments(t, "-scale", "0.002", "-out", out, "all"); exit != 0 {
		t.Fatalf("exit %d: %s", exit, stderr)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []string{
		"# hyperprov experiments (scale 0.002)",
		"## Fig 7 ", "## Fig 8 ", "## Fig 9a ", "## Fig 9b ", "## Fig 10 ",
		"## Prop 5.1:", "## Ablations",
	} {
		if !strings.Contains(string(b), h) {
			t.Errorf("output lacks %q", h)
		}
	}
}

// TestUsageErrors: no experiment, or an unknown one, exits 2.
func TestUsageErrors(t *testing.T) {
	if exit, _ := experiments(t); exit != 2 {
		t.Errorf("no experiment: exit %d, want 2", exit)
	}
	exit, stderr := experiments(t, "-scale", "0.002", "fig7", "fig11")
	if exit != 2 || !strings.Contains(stderr, `unknown experiment "fig11"`) {
		t.Errorf("unknown experiment: exit %d, stderr %q; want 2 and its name", exit, stderr)
	}
}
