package provstore

// Golden-file compatibility for the snapshot format across the
// hash-consing change. The fixtures under testdata were produced by the
// pre-interning encoder (same workload for both engine modes:
// Tuples=40, Pool=10, Group=2, Updates=30, QueriesPerTxn=3,
// MergeRatio=0.5, Seed=42), in version 1 of the format. Nothing writes
// that version any more except the frozen encoder of oracle_test.go, so
//
//   - the old bytes still load, to an engine with the expected shape,
//   - re-saving the loaded engine through the oracle reproduces the
//     fixture byte for byte, and
//   - so does a second generation that went through the current format.

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"hyperprov/internal/engine"
	"hyperprov/internal/workload"
)

func TestGoldenPreInterningSnapshots(t *testing.T) {
	cases := []struct {
		file          string
		rows, support int
		provSize      int64
	}{
		{"pre_interning_naive.snap", 89, 89, 1207},
		{"pre_interning_nf.snap", 87, 85, 743},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.file, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join("testdata", tc.file))
			if err != nil {
				t.Fatalf("reading fixture: %v", err)
			}
			e, err := LoadSnapshot(bytes.NewReader(raw))
			if err != nil {
				t.Fatalf("loading pre-interning fixture: %v", err)
			}
			if got := e.NumRows(); got != tc.rows {
				t.Errorf("rows = %d, want %d", got, tc.rows)
			}
			if got := e.SupportSize(); got != tc.support {
				t.Errorf("support = %d, want %d", got, tc.support)
			}
			if got := e.ProvSize(); got != tc.provSize {
				t.Errorf("prov size = %d, want %d", got, tc.provSize)
			}

			if !bytes.Equal(oracleBytes(t, tc.file, e), raw) {
				t.Fatal("re-saved snapshot differs from the pre-interning fixture")
			}

			// Through the current format and a fresh load: still the
			// fixture's bytes.
			var v2 bytes.Buffer
			if err := SaveSnapshot(&v2, e); err != nil {
				t.Fatalf("re-saving: %v", err)
			}
			e2, err := LoadSnapshot(bytes.NewReader(v2.Bytes()))
			if err != nil {
				t.Fatalf("reloading: %v", err)
			}
			if !bytes.Equal(oracleBytes(t, tc.file, e2), raw) {
				t.Fatal("second-generation snapshot drifted from the fixture bytes")
			}
		})
	}
}

// TestGoldenV2Snapshots: testdata/v2_*.snap are the version 2 writer's
// snapshots of the same workload applied by engine.New in each mode
// (every data directory from the streaming format's first day to the
// prefix dictionary holds version 2). They load unedited to the state
// the workload leaves — the live database has no difference, and the
// loaded engine saves the version 3 bytes of the engine that ran it.
func TestGoldenV2Snapshots(t *testing.T) {
	cfg := workload.Config{Tuples: 40, Pool: 10, Group: 2, Updates: 30, QueriesPerTxn: 3, MergeRatio: 0.5, Seed: 42}
	for file, mode := range map[string]engine.Mode{"v2_naive.snap": engine.ModeNaive, "v2_nf.snap": engine.ModeNormalForm} {
		t.Run(file, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join("testdata", file))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(raw, []byte("HPRV2\n")) {
				t.Fatalf("%s is not in version 2", file)
			}
			back, err := LoadSnapshot(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			initial, txns, err := workload.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			src := engine.New(mode, initial)
			if err := src.ApplyAll(context.Background(), txns); err != nil {
				t.Fatal(err)
			}
			if d := engine.LiveDB(back).Diff(engine.LiveDB(src)); d != "" || back.NumRows() != src.NumRows() {
				t.Fatalf("loaded %d rows, want %d; difference: %s", back.NumRows(), src.NumRows(), d)
			}
			var want, got bytes.Buffer
			if err := SaveSnapshot(&want, src); err != nil {
				t.Fatal(err)
			}
			if err := SaveSnapshot(&got, back); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("re-saved %d bytes, the source engine saves %d others", got.Len(), want.Len())
			}
		})
	}
}
