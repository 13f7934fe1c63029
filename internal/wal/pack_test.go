package wal

import (
	"bytes"
	"compress/flate"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/metrics"
	"testing"

	"hyperprov/internal/db"
	"hyperprov/internal/workload"
)

// goldenRecords returns the records of the plain golden segment: every
// record type, the schema-relative and the self-describing form.
func goldenRecords(tb testing.TB) [][]byte {
	seg, err := os.ReadFile(filepath.Join("testdata", "golden-plain", segName(0)))
	if err != nil {
		tb.Fatal(err)
	}
	return segmentRecords(tb, seg)
}

// packedBody is a packed frame's body: the records' lengths, then the
// records.
func packedBody(records [][]byte) []byte {
	var body []byte
	for _, r := range records {
		body = binary.AppendUvarint(body, uint64(len(r)))
	}
	for _, r := range records {
		body = append(body, r...)
	}
	return body
}

func deflated(body []byte) []byte {
	var buf bytes.Buffer
	zw, _ := flate.NewWriter(&buf, ckptLevel)
	zw.Write(body)
	zw.Close()
	return buf.Bytes()
}

// packedPayload is a packed frame's payload as its header states it,
// whatever z inflates to.
func packedPayload(count, size int, z []byte) []byte {
	return append(binary.AppendUvarint(binary.AppendUvarint([]byte{recPacked}, uint64(count)), uint64(size)), z...)
}

// hostilePacks returns packed payloads of records that a frame's CRC
// cannot catch — whole, and malformed — each named for what is wrong.
func hostilePacks(records [][]byte) map[string][]byte {
	body := packedBody(records)
	z := deflated(body)
	long := append([]byte{byte(len(records[0]) + 1)}, body[1:]...) // the first length one too many
	if len(records[0]) >= 127 {
		panic("the first record's length is not one byte")
	}
	packed := packedPayload(len(records), len(body), z)
	nested := packedBody([][]byte{records[0], packed})
	noise := make([]byte, 4096)
	rand.New(rand.NewSource(5)).Read(noise)
	zn := deflated(noise)
	// The second length, ten bytes long, wraps the lengths' sum round to
	// the bytes left after it.
	wrap := append(binary.AppendUvarint([]byte{20}, 1<<64-10), make([]byte, 10)...)
	return map[string][]byte{
		"lengths that wrap":            packedPayload(2, len(wrap), deflated(wrap)),
		"count one too many":           packedPayload(len(records)+1, len(body), z),
		"a length one too many":        packedPayload(len(records), len(long), deflated(long)),
		"an empty record":              packedPayload(2, 1+len(records[0])+1, deflated(packedBody([][]byte{{}, records[0]}))),
		"deflate cut short":            packedPayload(len(records), len(body), z[:len(z)/2]),
		"bytes after the deflate":      packedPayload(len(records), len(body), append(bytes.Clone(z), 0, 0, 0)),
		"inflates past its size":       packedPayload(len(records), len(body)-1, z),
		"past deflate's ceiling":       packedPayload(len(records), maxPackRatio*len(z)+1, z),
		"at the ceiling, inflating 4K": packedPayload(2, maxPackRatio*len(zn), zn),
		"a packed record inside":       packedPayload(2, len(nested), deflated(nested)),
	}
}

// TestUnpackRoundTrip: the log writer packs a group into the payload
// this file's reference builds, when that is smaller than the group's
// plain frames and only then, and the reader expands it to the group.
func TestUnpackRoundTrip(t *testing.T) {
	records := goldenRecords(t)
	pk := newPacker()
	var u unpacker
	for n := 2; n <= 2*len(records); n++ {
		group := append(records[:len(records):len(records)], records...)[:n]
		body := packedBody(group)
		want, plain := packedPayload(n, len(body), deflated(body)), 0
		for _, r := range group {
			plain += frameHeaderSize + len(r)
		}
		p := pk.pack(group)
		if smaller := frameHeaderSize+len(want) < plain; !bytes.Equal(p, want) && (smaller || p != nil) {
			t.Fatalf("a group of %d packs to %d bytes, want %d (plain frames %d)", n, len(p), len(want), plain)
		}
		if p == nil {
			continue
		}
		if err := u.unpack(p); err != nil {
			t.Fatalf("a packed group of %d: %v", n, err)
		}
		var got [][]byte
		for r, ok := u.take(); ok; r, ok = u.take() {
			got = append(got, bytes.Clone(r))
		}
		if !reflect.DeepEqual(got, group) {
			t.Fatalf("a group of %d unpacks to %d records that differ", n, len(got))
		}
	}
	if pk.pack([][]byte{{recMinimize}, {recMinimize}}) != nil {
		t.Fatal("two one-byte records packed into a frame larger than their own")
	}
}

// FuzzUnpack feeds arbitrary packed payloads, seeded with a valid one
// and every hostile shape, to the unpacker. It must not panic; what it
// accepts are non-empty records that pack again to what the header
// said; and what it allocates is bounded by the bytes that inflate, not
// by the size the header claims.
func FuzzUnpack(f *testing.F) {
	records := goldenRecords(f)
	body := packedBody(records)
	f.Add(packedPayload(len(records), len(body), deflated(body))[1:])
	for _, p := range hostilePacks(records) {
		f.Add(p[1:])
	}
	allocated := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	var u unpacker
	f.Fuzz(func(t *testing.T, data []byte) {
		data = append([]byte{recPacked}, data...)
		for try := 0; ; try++ {
			metrics.Read(allocated)
			before := allocated[0].Value.Uint64()
			err := u.unpack(data)
			metrics.Read(allocated)
			// The inflater's first making, then the body: the doublings up
			// to its capacity, which is four times the deflated bytes or
			// twice what inflated.
			limit := uint64(1<<16 + 8*len(data) + 2*cap(u.body))
			if got := allocated[0].Value.Uint64() - before; got > limit {
				if try < 3 {
					continue
				}
				t.Fatalf("unpacking %d bytes allocates %d, want at most %d", len(data), got, limit)
			}
			if err != nil {
				return
			}
			break
		}
		var got [][]byte
		for r, ok := u.take(); ok; r, ok = u.take() {
			if len(r) == 0 {
				t.Fatal("an empty record is accepted")
			}
			got = append(got, r)
		}
		d := recDecoder{buf: data[1:]}
		if count, size := d.uvarint(), d.uvarint(); uint64(len(got)) != count || uint64(len(packedBody(got))) != size {
			t.Fatalf("%d records of %d bytes accepted from a header of %d and %d", len(got), len(packedBody(got)), count, size)
		}
	})
}

// writeSegment makes dir a store over the golden schema with nothing
// logged, then replaces its segment with frames of payloads.
func writeSegment(t *testing.T, dir string, payloads ...[]byte) {
	t.Helper()
	meta, err := readMeta(OSFS{}, filepath.Join("testdata", "golden"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, WithSchema(meta.schema))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	var seg []byte
	for _, p := range payloads {
		seg = appendFrame(seg, p)
	}
	if err := os.WriteFile(filepath.Join(dir, segName(0)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestHostilePackedFrames: a packed frame whose CRC checks but which
// does not unpack is a corrupt record, classified as a CRC-valid frame
// holding a record that does not decode: recovery refuses the directory
// with ErrCorrupt, in the middle of the log and at its tail alike, and
// truncates nothing. A stream's tail reader ends with ErrCorrupt there.
func TestHostilePackedFrames(t *testing.T) {
	records := goldenRecords(t)
	cases := hostilePacks(records[:6])
	cases["a record that does not decode (the reference)"] = []byte{0x7f, 1, 2, 3}
	for name, bad := range cases {
		for _, where := range []string{"mid-log", "tail"} {
			dir := t.TempDir()
			payloads := [][]byte{records[0], bad}
			if where == "mid-log" {
				payloads = append(payloads, records[1])
			}
			writeSegment(t, dir, payloads...)
			seg, _ := os.ReadFile(filepath.Join(dir, segName(0)))
			if _, err := Open(dir); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s, %s: Open = %v, want ErrCorrupt", name, where, err)
			}
			if after, _ := os.ReadFile(filepath.Join(dir, segName(0))); !bytes.Equal(after, seg) {
				t.Errorf("%s, %s: recovery rewrote the segment", name, where)
			}
			if bad[0] != recPacked {
				continue
			}
			tail := tailReader{fs: OSFS{}, dir: dir}
			_, err := tail.next(0)
			if err == nil {
				_, err = tail.next(1)
			}
			tail.close()
			if !errors.Is(err, ErrCorrupt) && name != "a packed record inside" {
				t.Errorf("%s, %s: the tail reader reads record 1 with %v, want ErrCorrupt", name, where, err)
			}
		}
	}
}

// TestTailReaderAllocatesWhatIsThereInPackedFrames extends
// TestTailReaderAllocatesWhatIsThere to packed frames: one whose header
// claims deflate's ceiling, or more, costs a stream's tail reader its
// read buffer, its inflater and what inflates, not what is claimed.
func TestTailReaderAllocatesWhatIsThereInPackedFrames(t *testing.T) {
	records := goldenRecords(t)
	for name, bad := range hostilePacks(records[:6]) {
		if name == "a packed record inside" {
			continue // unpacks: the follower refuses the record
		}
		dir := t.TempDir()
		writeSegment(t, dir, records[0], records[1], records[2], bad)
		// The read buffer, the inflater, a few opening the segment, and
		// four times the frame's bytes of body.
		limit := uint64(1<<16 + 48<<10 + 16<<10 + 4*len(bad))
		names, err := OSFS{}.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var got uint64
		for try := 0; try < 3; try++ {
			tail := tailReader{fs: listedFS{names: names}, dir: dir}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := tail.next(3)
			runtime.ReadMemStats(&after)
			tail.close()
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: reading record 3: %v, want ErrCorrupt", name, err)
			}
			if got = after.TotalAlloc - before.TotalAlloc; got <= limit {
				break
			}
		}
		if got > limit {
			t.Errorf("%s: a %d-byte packed frame costs the tail reader %d bytes, want at most %d", name, len(bad), got, limit)
		}
	}
}

// TestPackedAppendAllocatesNothing: once its buffers have grown, the log
// writer deflates a group into one packed frame with no allocation.
func TestPackedAppendAllocatesNothing(t *testing.T) {
	lw, err := openLogWriter(OSFS{}, t.TempDir(), 1<<30, 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer lw.close()
	group := goldenRecords(t)
	group = append(group, group...)
	if err := lw.append(group...); err != nil || lw.pk == nil || lw.pk.pack(group) == nil {
		t.Fatalf("the group does not pack (%v)", err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := lw.append(group...); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("a packed append allocates %.1f times, want 0", n)
	}
}

// TestStreamResumesInsidePackedFrame: a stream that resumes at an LSN
// inside a packed frame sends exactly the records from there on, one a
// frame, with no frame announcement for the rest of that frame; a packed
// frame it sends from its start is announced by a heartbeat naming its
// size.
func TestStreamResumesInsidePackedFrame(t *testing.T) {
	var txns []db.Transaction
	schema := codecSchema(t)
	for _, p := range goldenRecords(t)[:6] {
		rec, err := decodeRecord(p, schema)
		if err != nil {
			t.Fatal(err)
		}
		txns = append(txns, *rec.Txn)
	}
	st, err := Open(t.TempDir(), WithSchema(schema), WithSync(SyncNever))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var batches [][]db.Transaction
	for _, n := range []int{30, 10} {
		var b []db.Transaction
		for i := 0; i < n; i++ {
			b = append(b, txns[i%len(txns)])
		}
		if _, err := st.ApplyBatch(context.Background(), b); err != nil {
			t.Fatal(err)
		}
		batches = append(batches, b)
	}
	seg, err := os.ReadFile(filepath.Join(st.Dir(), segName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if frames := len(segmentFrames(t, seg)); frames != 2 {
		t.Fatalf("the two batches are %d frames, want two packed ones", frames)
	}
	logged := segmentRecords(t, seg)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() { done <- st.ServeStream(ctx, pw, 17); pw.Close() }()
	fr := newFrameReader(pr, ErrStreamCorrupt)
	if p, err := fr.next(); err != nil || p[0] != msgHello {
		t.Fatalf("first message %v, %v; want a hello", p, err)
	}
	var announced []uint64
	for want := uint64(17); want < 40; {
		p, err := fr.next()
		if err != nil {
			t.Fatal(err)
		}
		d := &recDecoder{buf: p[1:]}
		switch p[0] {
		case msgHeartbeat:
			if lsn, _ := d.uvarint(), d.uvarint(); len(d.buf) > 0 {
				if k := d.uvarint(); lsn != want+k {
					t.Fatalf("a frame of %d records announced at %d with LSN %d", k, want, lsn)
				}
				announced = append(announced, want)
			}
		case msgRecord:
			if lsn := d.uvarint(); lsn != want || !bytes.Equal(d.buf, logged[lsn]) {
				t.Fatalf("record %d sent where %d was due, or with other bytes than the log's", lsn, want)
			}
			want++
		default:
			t.Fatalf("message type %d mid-stream", p[0])
		}
	}
	cancel()
	pr.Close()
	<-done
	if !reflect.DeepEqual(announced, []uint64{30}) {
		t.Fatalf("frames announced at %v, want only the second batch's, at 30", announced)
	}
}

// segmentFrames returns the payloads of a segment image's frames, as
// they are: a packed frame is one.
func segmentFrames(tb testing.TB, seg []byte) [][]byte {
	tb.Helper()
	var frames [][]byte
	fr := newFrameReader(bytes.NewReader(seg), ErrCorrupt)
	for {
		payload, err := fr.next()
		if err == io.EOF {
			return frames
		}
		if err != nil {
			tb.Fatal(err)
		}
		frames = append(frames, bytes.Clone(payload))
	}
}

// BenchmarkPackGroup deflates one bulk_scan-shaped group commit — 25
// transactions of ten unindexed single-group selections, logged
// schema-relative — into a packed frame, the cost a group pays under
// the store's lock. It reports the packed frame's bytes over the
// group's plain frames.
func BenchmarkPackGroup(b *testing.B) {
	initial, txns, err := workload.Generate(workload.Config{
		Tuples: 2000, Pool: 420, Group: 1, Updates: 250, QueriesPerTxn: 10, MergeRatio: 0.1, Seed: 36,
	})
	if err != nil {
		b.Fatal(err)
	}
	var group [][]byte
	plain := 0
	for i := range txns[:25] {
		group = append(group, encodeAs(initial.Schema(), &txns[i]))
		plain += frameHeaderSize + len(group[i])
	}
	pk := newPacker()
	packed := pk.pack(group)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pk.pack(group)
	}
	b.ReportMetric(float64(frameHeaderSize+len(packed))/float64(plain), "packed/plain")
}
