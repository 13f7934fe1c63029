package wal

import (
	"bufio"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

const (
	segPrefix  = "wal-"
	segSuffix  = ".seg"
	ckptPrefix = "checkpoint-"
	ckptSuffix = ".ckpt"
	metaName   = "META"

	lockFileName = "LOCK"
)

func segName(startLSN uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, startLSN, segSuffix)
}

func ckptName(lsn uint64) string {
	return fmt.Sprintf("%s%016x%s", ckptPrefix, lsn, ckptSuffix)
}

// parseSeqName extracts the hex sequence number from names such as
// wal-0000000000000010.seg given its prefix and suffix.
func parseSeqName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	hex := name[len(prefix) : len(name)-len(suffix)]
	if len(hex) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// listSeqFiles returns the sorted sequence numbers of all files in dir
// matching prefix/suffix (segments or checkpoints).
func listSeqFiles(fs FS, dir, prefix, suffix string) ([]uint64, error) {
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, name := range names {
		if v, ok := parseSeqName(name, prefix, suffix); ok {
			seqs = append(seqs, v)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// logWriter appends framed records to the current segment, rotating to
// a fresh segment once segSize is exceeded. It does not decide sync
// policy — the store calls sync() at the cadence the policy dictates.
type logWriter struct {
	fs      FS
	dir     string
	segSize int64

	f     File          // current segment
	w     *bufio.Writer // buffers frames; flushed before any sync
	fw    frameWriter   // frames onto w
	pk    *packer       // packs a group's records into one frame (see run)
	start uint64        // LSN of the current segment's first record
	count uint64        // records appended to the current segment
	bytes int64         // the current segment's records as plain frames
}

// openLogWriter positions the writer to append records starting at
// nextLSN. If a segment already holds records [start, nextLSN) — segBytes
// of them as plain frames — it is reopened for append; otherwise a new
// segment named for nextLSN is created.
func openLogWriter(fs FS, dir string, segSize int64, segStart uint64, segBytes int64, segCount uint64, nextLSN uint64) (*logWriter, error) {
	lw := &logWriter{fs: fs, dir: dir, segSize: segSize}
	if segCount > 0 && segStart+segCount == nextLSN {
		f, err := fs.OpenAppend(filepath.Join(dir, segName(segStart)))
		if err != nil {
			return nil, err
		}
		lw.f = f
		lw.start = segStart
		lw.count = segCount
		lw.bytes = segBytes
	} else {
		f, err := fs.Create(filepath.Join(dir, segName(nextLSN)))
		if err != nil {
			return nil, err
		}
		if err := fs.SyncDir(dir); err != nil {
			f.Close()
			return nil, err
		}
		lw.f = f
		lw.start = nextLSN
	}
	lw.w = bufio.NewWriterSize(lw.f, 1<<16)
	lw.fw.w = lw.w
	return lw, nil
}

// append frames a group's payloads onto the log. A segment rotates
// before the record that finds segSize bytes of records in it, counted
// as plain frames whatever they were written as, so segment names
// (LSNs) do not depend on packing. Between rotations the group is cut
// into runs of at most half a segment: a damaged frame with an intact
// one after it in its segment is refused as corrupt, not truncated as a
// torn tail, so packing never widens that window past half a segment.
// A run of two or more records is one packed frame when that is
// smaller, else a frame each. It does not sync.
func (lw *logWriter) append(payloads ...[]byte) error {
	for len(payloads) > 0 {
		if lw.bytes >= lw.segSize && lw.count > 0 {
			if err := lw.rotate(); err != nil {
				return err
			}
		}
		n, run := 0, int64(0)
		for n < len(payloads) && lw.bytes+run < lw.segSize && run < lw.segSize/2 {
			run += int64(frameHeaderSize + len(payloads[n]))
			n++
		}
		if err := lw.run(payloads[:n]); err != nil {
			return err
		}
		lw.count += uint64(n)
		lw.bytes += run
		payloads = payloads[n:]
	}
	return nil
}

// run writes one run of a group. The packer's deflate state (≈ 1.2 MB)
// is made by the first run that can use it, so a store that never
// group-commits does not hold it.
func (lw *logWriter) run(payloads [][]byte) error {
	if len(payloads) > 1 {
		if lw.pk == nil {
			lw.pk = newPacker()
		}
		if packed := lw.pk.pack(payloads); packed != nil {
			return lw.fw.writeMsg(packed)
		}
	}
	for _, p := range payloads {
		if err := lw.fw.writeMsg(p); err != nil {
			return err
		}
	}
	return nil
}

// rotate syncs and closes the current segment and opens a fresh one
// whose name is the next LSN.
func (lw *logWriter) rotate() error {
	if err := lw.sync(); err != nil {
		return err
	}
	if err := lw.f.Close(); err != nil {
		return err
	}
	next := lw.start + lw.count
	f, err := lw.fs.Create(filepath.Join(lw.dir, segName(next)))
	if err != nil {
		return err
	}
	if err := lw.fs.SyncDir(lw.dir); err != nil {
		f.Close()
		return err
	}
	lw.f = f
	lw.w.Reset(f)
	lw.start = next
	lw.count = 0
	lw.bytes = 0
	return nil
}

// flush drains the buffer to the OS without fsyncing.
func (lw *logWriter) flush() error { return lw.w.Flush() }

// sync flushes the buffer and fsyncs the segment.
func (lw *logWriter) sync() error {
	if err := lw.w.Flush(); err != nil {
		return err
	}
	return lw.f.Sync()
}

// close syncs and closes the current segment.
func (lw *logWriter) close() error {
	err := lw.sync()
	if cerr := lw.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// crash abandons buffered bytes and closes the file without flushing or
// syncing — simulating process death for tests.
func (lw *logWriter) crash() {
	lw.w.Reset(lw.f) // drop buffered frames
	_ = lw.f.Close()
}
