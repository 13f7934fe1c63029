package provstore_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
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

// TestHostileV3Streams: what version 3 adds to a row stream — indexed
// variables, continuations, distances back and repeated roots — is
// checked against the state the bytes before it established. Each
// refusal is ErrMalformed, and a refused load allocates what a load of
// the empty database does, plus the first slab of values once a row is
// read and a little for each input byte, whatever the bytes claim: 64 B,
// or 160 B where nearly every byte mints a leaf by name.
func TestHostileV3Streams(t *testing.T) {
	// R(a int, b string, c float), then the stream of its one relation.
	hdr := []byte("HPRV3\n\x01\x01\x01R\x03\x01a\x01\x01b\x00\x01c\x02")
	const tagPlusI, tagRow, tagEnd, tagVarAt, tagNext, tagRowSame = 2, 7, 8, 9, 10, 12
	name := func(s string) []byte { return append([]byte{1, byte(core.KindTuple), byte(len(s))}, s...) }
	x0 := name("x0") // by name: adds the prefix x, last index 0
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	end := []byte{tagEnd}
	// x0, x1, x1 +ᵢ x0; a row annotated with the sum and one repeating it.
	good := cat(hdr, x0, []byte{tagNext, tagPlusI, 1, 2}, []byte{tagRow, 0, 2, 0, 1, 's', 2<<2 | 1, 1}, []byte{tagRowSame, 0b110, 4}, end)
	e, err := provstore.LoadSnapshot(bytes.NewReader(good))
	want := core.PlusI(core.TupleVar("x1"), core.TupleVar("x0"))
	if err != nil || e.NumRows() != 2 || e.Annotation("R", db.Tuple{db.I(1), db.S("s"), db.F(1)}) != want ||
		e.Annotation("R", db.Tuple{db.I(3), db.S("s"), db.F(1)}) != want {
		t.Fatalf("the well-formed stream: %v", err)
	}
	empty := cat(hdr, end)
	if _, err := provstore.LoadSnapshot(bytes.NewReader(empty)); err != nil {
		t.Fatal(err)
	}
	allocated := func(data []byte) uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		for range 20 {
			_, _ = provstore.LoadSnapshot(bytes.NewReader(data))
		}
		runtime.ReadMemStats(&ms)
		return (ms.TotalAlloc - before) / 20
	}
	base := allocated(empty)
	cases := map[string][]byte{
		"continuation before any variable":    cat(hdr, []byte{tagNext}),
		"continuation of a kind not seen":     cat(hdr, x0, []byte{tagNext + byte(core.KindQuery)}),
		"continuation past the largest index": cat(hdr, name("x999999999999999999"), []byte{tagNext}),
		"index past the largest":              cat(hdr, x0, uv([]byte{tagVarAt, 0}, core.MaxLeafIndex<<1)),
		"index below zero":                    cat(hdr, x0, []byte{tagVarAt, 0, 3}),
		"index overflowing int64":             cat(hdr, x0, uv([]byte{tagVarAt, 0}, 1<<64-2)),
		"prefix past the dictionary":          cat(hdr, x0, []byte{tagVarAt, 1, 0}),
		"prefix before any variable":          cat(hdr, []byte{tagVarAt, 0, 0}),
		"reference distance zero":             cat(hdr, x0, []byte{tagPlusI, 0, 1}),
		"reference beyond the table":          cat(hdr, x0, []byte{tagPlusI, 1, 2}),
		"repeated root on the first row":      cat(hdr, x0, []byte{tagRowSame, 0b111}, end),
		"version 3 tag in version 2":          cat([]byte("HPRV2\n"), hdr[6:], x0, []byte{tagNext}),
		"repeated root in version 2":          cat([]byte("HPRV2\n"), hdr[6:], []byte{1, 0, 1, 'x', tagRow, 0b111, 1, tagRowSame, 0b111}, end),
		// A prefix past 32 bytes takes no entry, so nothing continues it
		// (else each run of 15 would build 15 names of 1 MiB).
		"runs of a long prefix": cat(hdr, uv([]byte{1, byte(core.KindTuple)}, 1<<20+1), bytes.Repeat([]byte{'x'}, 1<<20), []byte{'0'},
			bytes.Repeat(append([]byte{tagVarAt, 0, 2}, bytes.Repeat([]byte{tagNext}, 14)...), 70)),
	}
	// Thousands of prefixes, each continued 16 times: the dictionary takes
	// the first 64, and the rest continue the last of those in ascending
	// runs, each a range of one key.
	var prefixes []byte
	for k := range 4000 {
		prefixes = append(append(prefixes, name(fmt.Sprintf("p%dx0", k))...), bytes.Repeat([]byte{tagNext}, 16)...)
	}
	cases["thousands of prefixes"] = cat(hdr, prefixes, []byte{tagNext + 3})
	// A byte can mint a leaf, and a leaf by name (a run shorter than 16)
	// costs its 48-byte node, a 32-byte extension and its name, at most a
	// 32-byte prefix and 18 digits (DESIGN.md §3.14): streams that mint a
	// leaf by name for nearly every byte take up to 160 B a byte.
	long := strings.Repeat("y", 32)
	var alternating, descending []byte
	for range 20000 {
		alternating = append(alternating, tagNext, tagNext+byte(core.KindQuery))
	}
	// Runs of 16 from 999 968 down: core.Vars takes the first as a range
	// and interns the others, each below it, by name.
	for range 2000 {
		descending = append(binary.AppendVarint(append(descending, tagVarAt, 0), -32), bytes.Repeat([]byte{tagNext}, 15)...)
	}
	perByte := map[string]uint64{}
	for label, stream := range map[string][]byte{
		"continuations of two kinds":     alternating,
		"runs of one prefix, descending": descending,
	} {
		cases[label] = cat(hdr, name(long+"999999"), []byte{1, byte(core.KindQuery), 33}, []byte(long+"0"), stream, []byte{tagNext + 3})
		perByte[label] = 160
	}
	for name, data := range cases {
		// The first load of each interns what it names. It may also open
		// a chunk of nodes and one of extensions in each of the intern
		// table's 64 shards (48 KiB and 512 B) and double the table's
		// heads, so it is held to 256 B a byte: what grows faster than
		// the input (names built from a long prefix, a registry copied
		// for each range) passes that within a few thousand bytes.
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		_, err := provstore.LoadSnapshot(bytes.NewReader(data))
		runtime.ReadMemStats(&ms)
		if !errors.Is(err, provstore.ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", name, err)
		}
		// A row takes the first 64 KiB slab of values.
		if n := ms.TotalAlloc - before; n > base+64<<10+64*(48<<10+512)+256*uint64(len(data)) {
			t.Errorf("%s: the first load allocated %d bytes for %d input bytes, the empty database takes %d", name, n, len(data), base)
		}
		if n := allocated(data); n > base+64<<10+max(64, perByte[name])*uint64(len(data)) {
			t.Errorf("%s: %d bytes allocated for %d input bytes, the empty database takes %d", name, n, len(data), base)
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
// old-node roots, repeated roots, runs of leaves), and in versions 1 and
// 2, which must stay as safe to read, the fixtures as they are.
func sweptSnapshots(t testing.TB) []namedSnapshot {
	t.Helper()
	read := func(name, magic string) []byte {
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(raw, []byte(magic)) {
			t.Fatalf("%s: want magic %q", name, magic)
		}
		return raw
	}
	v1 := read("pre_interning_nf.snap", "HPRV1\n")
	e, err := provstore.LoadSnapshot(bytes.NewReader(v1))
	if err != nil {
		t.Fatal(err)
	}
	var v3 bytes.Buffer
	if err := provstore.SaveSnapshot(&v3, e); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(v3.Bytes(), []byte("HPRV3\n")) {
		t.Fatal("want the fixture re-saved in version 3")
	}
	return []namedSnapshot{
		{"v3 example", exampleSnapshotBytesT(t)}, {"v3 workload", v3.Bytes()},
		{"v2 fixture", read("v2_nf.snap", "HPRV2\n")}, {"v1 fixture", v1},
	}
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
