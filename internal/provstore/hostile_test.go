package provstore_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/provstore"
)

// uv appends a uvarint to b.
func uv(b []byte, v uint64) []byte {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	return append(b, buf[:n]...)
}

// TestHostileCountsAreTyped feeds the decoders inputs whose uvarint
// counts claim absurd sizes backed by almost no bytes. Each must fail
// fast with ErrMalformed or an io error — no panic, and (checked
// indirectly by running at all) no allocation proportional to the
// claimed count.
func TestHostileCountsAreTyped(t *testing.T) {
	cases := map[string][]byte{
		// WriteExpr header: node count 1, root 0, then a sum node
		// claiming 2^20 children with no child bytes behind it.
		"sum-arity-bomb": uv(append(uv(uv(nil, 1), 0), 6), 1<<20),
		// Var node whose name claims 2^20 bytes backed by one.
		"string-length-bomb": append(uv(append(uv(uv(nil, 1), 0), 1, 0), 1<<20), 'x'),
		// Sum arity just over the hard cap.
		"sum-arity-over-cap": uv(append(uv(uv(nil, 1), 0), 6), (1<<24)+1),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := provstore.ReadExpr(bytes.NewReader(data))
			if err == nil {
				t.Fatal("hostile input accepted")
			}
		})
	}

	// The over-cap cases must carry the typed sentinel.
	overCap := uv(append(uv(uv(nil, 1), 0), 6), (1<<24)+1)
	if _, err := provstore.ReadExpr(bytes.NewReader(overCap)); !errors.Is(err, provstore.ErrMalformed) {
		t.Fatalf("over-cap sum arity: err = %v, want ErrMalformed", err)
	}
	overLen := uv(append(uv(uv(nil, 1), 0), 1, 0), (1<<24)+1)
	if _, err := provstore.ReadExpr(bytes.NewReader(overLen)); !errors.Is(err, provstore.ErrMalformed) {
		t.Fatalf("over-cap string length: err = %v, want ErrMalformed", err)
	}
}

// TestHostileSnapshotHeader checks the snapshot loader's structural
// failures carry ErrMalformed.
func TestHostileSnapshotHeader(t *testing.T) {
	bad := func(b []byte) error {
		_, err := provstore.LoadSnapshot(bytes.NewReader(b))
		return err
	}
	if err := bad([]byte("NOPE!\nxxxx")); !errors.Is(err, provstore.ErrMalformed) {
		t.Fatalf("bad magic: err = %v, want ErrMalformed", err)
	}
	for _, magic := range []string{"HPRV1\n", "HPRV2\n"} {
		if err := bad([]byte(magic + "\xff")); !errors.Is(err, provstore.ErrMalformed) {
			t.Fatalf("%q, bad mode: err = %v, want ErrMalformed", magic, err)
		}
		// Relation count bomb: mode byte then 2^40 relations.
		hdr := uv(append([]byte(magic), byte(engine.ModeNormalForm)), 1<<40)
		if err := bad(hdr); !errors.Is(err, provstore.ErrMalformed) {
			t.Fatalf("%q, relation count bomb: err = %v, want ErrMalformed", magic, err)
		}
	}
}

// TestHostileRowStreams: every reference a version 2 row stream makes is
// checked against what the bytes before it established — the bounds the
// version 1 decoder had on node ids and row counts, for the interleaved
// layout.
func TestHostileRowStreams(t *testing.T) {
	// The decoder runs on a goroutine of its own: refused or not, a load
	// leaves none behind.
	defer func(base int) {
		if n := settledGoroutines(base); n > base {
			t.Errorf("%d goroutines after the loads, %d before", n, base)
		}
	}(runtime.NumGoroutine())
	// R(a int, b string, c float), then the stream of its one relation.
	hdr := []byte("HPRV2\n\x01\x01\x01R\x03\x01a\x01\x01b\x00\x01c\x02")
	const tagRow, tagEnd = 7, 8
	x := []byte{1, 0, 1, 'x'} // a node: the tuple variable x
	row := func(mask byte, rest ...byte) []byte { return append([]byte{tagRow, mask}, rest...) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	good := cat(hdr, x, row(0, 2, 0, 1, 's', 2<<2|1, 1), row(0b111, 1), []byte{tagEnd})
	e, err := provstore.LoadSnapshot(bytes.NewReader(good))
	if err != nil || e.NumRows() != 1 || e.Annotation("R", db.Tuple{db.I(1), db.S("s"), db.F(1)}) != core.TupleVar("x") {
		t.Fatalf("the well-formed stream: %v", err)
	}
	cases := map[string][]byte{
		"row before any node":        cat(hdr, row(0b111, 1), []byte{tagEnd}),
		"root distance zero":         cat(hdr, x, row(0b111, 0), []byte{tagEnd}),
		"root beyond the first node": cat(hdr, x, row(0b111, 2), []byte{tagEnd}),
		"dictionary reference ahead": cat(hdr, x, row(0b101, 1, 1), []byte{tagEnd}),
		"mask wider than the arity":  cat(hdr, x, row(0b1111, 1), []byte{tagEnd}),
		"float header of form 3":     cat(hdr, x, row(0b011, 3, 1), []byte{tagEnd}),
		"raw float header with bits": cat(hdr, x, row(0b011, 4, 1), []byte{tagEnd}),
		"unknown item tag":           cat(hdr, x, []byte{9}),
		"forward node reference":     cat(hdr, []byte{2, 0, 1}, []byte{tagEnd}),
		"string length over the cap": cat(hdr, x, append(uv(row(0b101, 0), 1<<24+1), 'x')),
	}
	for name, data := range cases {
		if _, err := provstore.LoadSnapshot(bytes.NewReader(data)); !errors.Is(err, provstore.ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", name, err)
		}
	}
	// Ended early, anywhere: an io error, never a database.
	for name, data := range map[string][]byte{
		"no end tag":              cat(hdr, x, row(0b111, 1)),
		"string length bomb":      cat(hdr, x, append(uv(row(0b101, 0), 1<<20), 'x')),
		"second relation missing": cat([]byte("HPRV2\n\x01\x02\x01R\x00\x01S\x00"), []byte{tagEnd}),
	} {
		if _, err := provstore.LoadSnapshot(bytes.NewReader(data)); err == nil || errors.Is(err, provstore.ErrMalformed) {
			t.Errorf("%s: err = %v, want an io error", name, err)
		}
	}
}

// TestSnapshotTruncationsNeverPanic loads every prefix of a valid
// snapshot: each must return an error (only the full image loads), and
// none may panic.
func TestSnapshotTruncationsNeverPanic(t *testing.T) {
	for _, img := range sweptSnapshots(t) {
		name, full := img.name, img.raw
		for cut := 0; cut < len(full); cut++ {
			if _, err := provstore.LoadSnapshot(bytes.NewReader(full[:cut])); err == nil {
				t.Fatalf("%s: truncation at %d of %d accepted", name, cut, len(full))
			}
		}
		if _, err := provstore.LoadSnapshot(bytes.NewReader(full)); err != nil {
			t.Fatalf("%s: full snapshot rejected: %v", name, err)
		}
	}
}

// TestSnapshotBitFlipsNeverPanic flips one bit in every byte of a valid
// snapshot. A flip may still decode (many bytes are value payloads) but
// must never panic; when it errors, the error must be a plain value.
func TestSnapshotBitFlipsNeverPanic(t *testing.T) {
	for _, img := range sweptSnapshots(t) {
		name, full := img.name, img.raw
		for pos := 0; pos < len(full); pos++ {
			flipped := bytes.Clone(full)
			flipped[pos] ^= 0x10
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s: panic on bit flip at byte %d: %v", name, pos, r)
					}
				}()
				_, _ = provstore.LoadSnapshot(bytes.NewReader(flipped))
			}()
		}
	}
}

// namedSnapshot is one valid image for the sweeps and the fuzz corpus.
type namedSnapshot struct {
	name string
	raw  []byte
}

// sweptSnapshots are the valid images the sweeps damage and the fuzzer
// starts from: in the current format the one-row example and the
// pre-interning workload re-saved (repeated columns, dictionary hits,
// old-node roots), and in version 1, which must stay as safe to read,
// the fixture as it is.
func sweptSnapshots(t testing.TB) []namedSnapshot {
	t.Helper()
	v1, err := os.ReadFile(filepath.Join("testdata", "pre_interning_nf.snap"))
	if err != nil {
		t.Fatal(err)
	}
	e, err := provstore.LoadSnapshot(bytes.NewReader(v1))
	if err != nil {
		t.Fatal(err)
	}
	var v2 bytes.Buffer
	if err := provstore.SaveSnapshot(&v2, e); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(v1, []byte("HPRV1\n")) || !bytes.HasPrefix(v2.Bytes(), []byte("HPRV2\n")) {
		t.Fatal("want the fixture in version 1 and its re-save in version 2")
	}
	return []namedSnapshot{{"v2 example", exampleSnapshotBytesT(t)}, {"v2 workload", v2.Bytes()}, {"v1 fixture", v1}}
}

func exampleSnapshotBytesT(t testing.TB) []byte {
	t.Helper()
	sch, err := dbSchemaForFuzz()
	if err != nil {
		t.Fatal(err)
	}
	e := engine.NewEmpty(engine.ModeNormalForm, sch)
	ann := core.PlusI(core.TupleVar("x"), core.DotM(core.Sum(core.TupleVar("y"), core.QueryVar("q")), core.QueryVar("p")))
	if err := e.RestoreRow("R", fuzzTuple(), ann); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := provstore.SaveSnapshot(&buf, e); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
