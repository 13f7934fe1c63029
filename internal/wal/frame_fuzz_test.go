package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"testing"

	"hyperprov/internal/engine"
)

// appendFrame appends payload framed the plain way — the reference the
// frameWriter of the log and of the stream must match byte for byte.
func appendFrame(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, crcTable))
	return append(buf, payload...)
}

// segmentRecords returns a copy of each record payload in a segment
// image, a packed frame's records one by one, failing on any damage.
func segmentRecords(tb testing.TB, seg []byte) [][]byte {
	tb.Helper()
	var records [][]byte
	fr := newRecordReader(bytes.NewReader(seg), ErrCorrupt)
	for {
		payload, err := fr.next()
		if err == io.EOF {
			return records
		}
		if err != nil {
			tb.Fatalf("segment record %d: %v", len(records), err)
		}
		records = append(records, bytes.Clone(payload))
	}
}

// FuzzReadFrame feeds arbitrary byte streams, seeded with the frames the
// leader's encoder writes for every message type, to the frame reader
// that reads the replication stream and the log's segments alike. It must
// not panic; every failure is ErrStreamCorrupt, and either a frame that
// broke off or one that is damaged, and only a stream that ends between
// frames is io.EOF; whatever it accepts is a non-empty payload that
// re-encodes to exactly the bytes it was read from; its reused buffer
// never exceeds the largest frame it read plus one growth step; and it
// never allocates more than the bytes that arrived plus one growth step —
// a header is eight bytes and may claim a gigabyte.
func FuzzReadFrame(f *testing.F) {
	golden := filepath.Join("testdata", "golden")
	meta, err := readMeta(OSFS{}, golden)
	if err != nil {
		f.Fatal(err)
	}
	seg, err := OSFS{}.ReadFile(filepath.Join(golden, segName(0)))
	if err != nil {
		f.Fatal(err)
	}
	var stream bytes.Buffer
	fw := &frameWriter{w: &stream}
	msgs := [][]byte{
		encodeHello(helloMsg{resync: true, mode: engine.ModeNormalForm, target: 7, snapLSN: 3, schema: meta.schema}),
		append([]byte{msgCkptChunk}, seg...),
		encodeCkptDone(3),
		encodeHeartbeat(7),
	}
	for i, payload := range segmentRecords(f, seg) {
		msgs = append(msgs, encodeStreamRecord(uint64(4+i), payload))
	}
	for _, m := range msgs {
		if err := fw.writeMsg(m); err != nil {
			f.Fatal(err)
		}
		f.Add(appendFrame(nil, m))
	}
	f.Add(stream.Bytes())
	f.Add(stream.Bytes()[:stream.Len()-3])                                             // the last frame breaks off
	f.Add(binary.LittleEndian.AppendUint32(nil, maxRecordLen))                         // half a header
	f.Add(binary.LittleEndian.AppendUint64(nil, maxRecordLen))                         // a gigabyte, claimed in eight bytes
	f.Add(binary.LittleEndian.AppendUint64(nil, maxRecordLen+1))                       // more than any frame may claim
	f.Add(append(binary.LittleEndian.AppendUint64(nil, 3*frameGrowStep), seg[:64]...)) // three steps claimed, 64 bytes sent
	f.Add(appendFrame(nil, nil))                                                       // an empty frame: no record or message is
	records := goldenRecords(f)                                                        // packed frames, valid and hostile
	f.Add(appendFrame(nil, packedPayload(len(records), len(packedBody(records)), deflated(packedBody(records)))))
	for _, p := range hostilePacks(records) {
		f.Add(appendFrame(nil, p))
	}

	allocated := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	f.Fuzz(func(t *testing.T, data []byte) {
		// The buffers of one message double, each allocated only once the
		// one before it is full of received bytes: under four times what
		// arrived, plus the first step of a frame that never filled it.
		// (The metric is the process's and moves a span at a time: hence
		// the 64 kB, and a reading that is the reader's repeats.)
		limit := uint64(1<<16 + frameGrowStep + 4*len(data))
		for try := 0; ; try++ {
			fr := newFrameReader(bytes.NewReader(data), ErrStreamCorrupt)
			metrics.Read(allocated)
			before := allocated[0].Value.Uint64()
			off, largest := 0, 0
			for {
				payload, err := fr.next()
				if err != nil {
					if err == io.EOF {
						if off != len(data) {
							t.Fatalf("io.EOF with %d of %d bytes consumed", off, len(data))
						}
					} else if !errors.Is(err, ErrStreamCorrupt) || !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, errFrameDamaged) {
						t.Fatalf("next: %v, want ErrStreamCorrupt, and a frame broken off or damaged", err)
					}
					break
				}
				if len(payload) == 0 {
					t.Fatalf("the frame at %d is accepted with an empty payload", off)
				}
				largest = max(largest, len(payload))
				if cap(fr.payload) > largest+frameGrowStep {
					t.Fatalf("frames of at most %d bytes are read through a %d-byte buffer", largest, cap(fr.payload))
				}
				end := off + frameHeaderSize + len(payload)
				if end > len(data) || !bytes.Equal(appendFrame(nil, payload), data[off:end]) {
					t.Fatalf("the frame at %d does not re-encode to the bytes it was read from", off)
				}
				off = end
			}
			metrics.Read(allocated)
			// Re-encoding each accepted frame above allocated its size again.
			got := allocated[0].Value.Uint64() - before
			if got <= limit+uint64(2*off) {
				break
			}
			if try == 3 {
				t.Fatalf("reading %d bytes allocates %d, want at most %d", len(data), got, limit+uint64(2*off))
			}
		}
	})
}

// TestReadFrameGrowsWithTheBytes: a payload larger than one growth step
// arrives whole through the doubling buffer, and a header that claims a
// gigabyte over an empty stream costs one step, not the gigabyte.
func TestReadFrameGrowsWithTheBytes(t *testing.T) {
	big := bytes.Repeat([]byte("0123456789abcdef"), 5*frameGrowStep/16+1)
	fr := newFrameReader(bytes.NewReader(appendFrame(appendFrame(nil, big), []byte("tail"))), ErrStreamCorrupt)
	for _, want := range [][]byte{big, []byte("tail")} {
		got, err := fr.next()
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("next = %d bytes, %v; want the %d-byte payload", len(got), err, len(want))
		}
	}
	if _, err := fr.next(); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}

	hostile := binary.LittleEndian.AppendUint64(nil, maxRecordLen)
	allocs := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, err := newFrameReader(bytes.NewReader(hostile), ErrStreamCorrupt).next()
			if !errors.Is(err, ErrStreamCorrupt) {
				b.Fatalf("next = %v, want ErrStreamCorrupt", err)
			}
		}
	})
	if got := allocs.AllocedBytesPerOp(); got > 1<<16+frameGrowStep+4096 {
		t.Fatalf("a gigabyte claimed in eight bytes allocates %d bytes, want one %d-byte step beside the 64 KiB read buffer", got, frameGrowStep)
	}
	_, err := newFrameReader(bytes.NewReader(append(hostile, "short"...)), ErrStreamCorrupt).next()
	if want := "wal: replication stream is corrupt: truncated frame payload: unexpected EOF"; err == nil || err.Error() != want {
		t.Fatalf("a short stream answers %q, want %q", err, want)
	}
}

// encodeStreamRecord is a record message as one payload — the type, the
// LSN, the log's bytes — built the plain way: the reference
// frameWriter.writeRecord must frame byte for byte.
func encodeStreamRecord(lsn uint64, payload []byte) []byte {
	var e recEncoder
	e.byte(msgRecord)
	e.uvarint(lsn)
	e.buf.Write(payload)
	return e.buf.Bytes()
}

// TestWriteRecordFrame: a record framed in place in the writer's reused
// buffer is appendFrame of the reference message, for LSNs across every
// uvarint width and payloads from empty to larger than any before them
// (and shorter, so nothing of a longer frame survives in the buffer).
func TestWriteRecordFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var got, want bytes.Buffer
	fw := &frameWriter{w: &got}
	for i := 0; i < 500; i++ {
		lsn := rng.Uint64() >> rng.Intn(64)
		switch i {
		case 0, 1:
			lsn = uint64(i)
		case 2:
			lsn = math.MaxUint64
		}
		payload := make([]byte, rng.Intn(3)*rng.Intn(2000))
		rng.Read(payload)
		if err := fw.writeRecord(lsn, payload); err != nil {
			t.Fatal(err)
		}
		want.Write(appendFrame(nil, encodeStreamRecord(lsn, payload)))
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("record %d (LSN %d, %d-byte payload) framed differently from appendFrame(encodeStreamRecord(...))", i, lsn, len(payload))
		}
	}
}

// TestTailSendAllocs: once its buffers have grown, a stream reads a
// record out of the log and frames it onto the transport with no
// allocation — refilling its read buffer from the open segment included.
func TestTailSendAllocs(t *testing.T) {
	dir := t.TempDir()
	lw, err := openLogWriter(OSFS{}, dir, 1<<20, 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{7}, 300)
	for range 400 { // 123 kB: the measured records cross a refill
		if err := lw.append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := lw.close(); err != nil {
		t.Fatal(err)
	}
	tail := tailReader{fs: OSFS{}, dir: dir}
	defer tail.close()
	fw := &frameWriter{w: io.Discard}
	var lsn uint64
	send := func() {
		p, err := tail.next(lsn)
		if err != nil || !bytes.Equal(p, payload) {
			t.Fatalf("record %d: %d bytes, %v", lsn, len(p), err)
		}
		if err := fw.writeRecord(lsn, p); err != nil {
			t.Fatal(err)
		}
		lsn++
	}
	send() // opens the segment and grows both buffers
	if n := testing.AllocsPerRun(300, send); n != 0 {
		t.Fatalf("sending a record from the log allocates %.1f times, want 0", n)
	}
}

// listedFS is OSFS answering ReadDir from a listing taken beforehand.
// os.ReadDir takes an 8 KiB buffer from a process-wide sync.Pool, which
// under -race drops a quarter of the buffers put back: a listing inside a
// measurement adds that step of the process at random.
type listedFS struct {
	OSFS
	names []string
}

func (l listedFS) ReadDir(string) ([]string, error) { return l.names, nil }

// TestTailReaderAllocatesWhatIsThere: a retained segment whose next frame
// claims maxRecordLen costs a stream's tail reader its 64 KiB read buffer
// and one growth step, not a gigabyte per redialing follower.
func TestTailReaderAllocatesWhatIsThere(t *testing.T) {
	dir := t.TempDir()
	lw, err := openLogWriter(OSFS{}, dir, 1<<20, 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for range 3 {
		if err := lw.append(bytes.Repeat([]byte{7}, 300)); err != nil {
			t.Fatal(err)
		}
	}
	if err := lw.close(); err != nil {
		t.Fatal(err)
	}
	seg, err := os.OpenFile(filepath.Join(dir, segName(0)), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = seg.Write(append(binary.LittleEndian.AppendUint64(nil, maxRecordLen), make([]byte, 4096)...))
	if cerr := seg.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}

	names, err := OSFS{}.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	limit := uint64(1<<16 + frameGrowStep + 16<<10) // the bytes that arrived and a few opening the segment
	var got uint64
	for try := 0; try < 3; try++ {
		tail := tailReader{fs: listedFS{names: names}, dir: dir}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := tail.next(3)
		runtime.ReadMemStats(&after)
		tail.close()
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("reading record 3: %v, want ErrCorrupt", err)
		}
		if got = after.TotalAlloc - before.TotalAlloc; got <= limit {
			return
		}
	}
	t.Fatalf("a frame claiming %d bytes in front of 4 KiB costs the tail reader %d bytes, want at most %d", maxRecordLen, got, limit)
}
