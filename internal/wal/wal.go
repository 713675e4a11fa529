// Package wal is an append-only, segmented, checksummed write-ahead
// log — the durability layer under the pabd job store. Records are
// opaque byte payloads framed as
//
//	uint32 length | uint32 CRC32-C(payload) | payload
//
// inside segment files (wal-<n>.log) that each begin with an 8-byte
// magic and rotate at a size threshold. Every record is written with a
// single write syscall, so a crashed process (kill -9) can tear at
// most the final record of the final segment; Open detects the torn
// tail by length/CRC validation and truncates it instead of failing
// startup. Sealed (non-final) segments are complete by construction,
// so a framing or CRC error there is real corruption and surfaces as
// ErrCorrupt rather than being silently dropped.
//
// Durability is tiered by fsync policy: FsyncAlways syncs every
// append (power-loss safe, slowest), FsyncInterval syncs dirty data on
// a background ticker (the default — kill -9 safe, because completed
// write syscalls survive process death in the page cache), FsyncNever
// syncs only on rotation, compaction and close.
//
// Compact bounds the log: the caller provides a snapshot of the
// records that are still live, Compact writes them to a fresh sealed
// segment (via tmp file + rename, so a crash mid-compaction leaves
// either the old segments or old+snapshot, never a hole) and deletes
// every older segment.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"pab/internal/telemetry"
)

// magic opens every segment file; a version bump changes the trailing
// digit so old logs fail loudly instead of replaying reinterpreted.
const magic = "PABWAL1\n"

// recordHeaderSize is the per-record framing overhead: uint32 payload
// length + uint32 CRC32-C of the payload.
const recordHeaderSize = 8

// maxRecordBytes bounds one record. A length field above it is treated
// as framing damage (torn tail in the final segment, corruption in a
// sealed one) rather than an allocation request.
const maxRecordBytes = 32 << 20

// crcTable is CRC32-Castagnoli, the checksum with hardware support on
// both amd64 and arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports framing or checksum damage in a sealed segment —
// damage that cannot be a crash artifact and must not be silently
// truncated.
var ErrCorrupt = errors.New("wal: corrupt sealed segment")

// ErrClosed reports use after Close.
var ErrClosed = errors.New("wal: log closed")

// FsyncPolicy selects when appends reach stable storage.
type FsyncPolicy int

const (
	// FsyncInterval syncs dirty data on a background ticker (default).
	FsyncInterval FsyncPolicy = iota
	// FsyncAlways syncs after every append.
	FsyncAlways
	// FsyncNever syncs only on rotation, compaction and close.
	FsyncNever
)

// ParseFsyncPolicy parses the -wal-fsync flag values.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "always":
		return FsyncAlways, nil
	case "interval", "":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (have always, interval, never)", s)
}

// Options tunes a Log.
type Options struct {
	// Dir holds the segment files; created if missing.
	Dir string
	// SegmentBytes is the rotation threshold; 0 selects 4 MiB.
	SegmentBytes int64
	// Fsync selects the durability tier.
	Fsync FsyncPolicy
	// SyncInterval is the FsyncInterval ticker period; 0 selects 100 ms.
	SyncInterval time.Duration
	// Registry receives append/fsync/rotation telemetry; nil selects
	// telemetry.Default().
	Registry *telemetry.Registry
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.SyncInterval <= 0 {
		o.SyncInterval = 100 * time.Millisecond
	}
	if o.Registry == nil {
		o.Registry = telemetry.Default()
	}
	return o
}

// Stats is a point-in-time log summary.
type Stats struct {
	Segments        int    `json:"segments"`
	ActiveBytes     int64  `json:"active_bytes"`
	TotalBytes      int64  `json:"total_bytes"`
	Appends         uint64 `json:"appends"`
	Fsyncs          uint64 `json:"fsyncs"`
	Rotations       uint64 `json:"rotations"`
	Compactions     uint64 `json:"compactions"`
	TornTruncations uint64 `json:"torn_truncations"`
}

// Log is an open write-ahead log. All methods are safe for concurrent
// use.
type Log struct {
	opt Options
	reg *telemetry.Registry

	mu          sync.Mutex
	active      *os.File
	activeIdx   uint64
	activeSize  int64
	sealedBytes int64
	sealed      []uint64 // indices of sealed segments, ascending
	dirty       bool
	closed      bool
	stats       Stats

	flushStop chan struct{}
	flushDone chan struct{}
}

// segmentName formats a segment file name; lexical order equals index
// order, which replay relies on.
func segmentName(idx uint64) string { return fmt.Sprintf("wal-%016d.log", idx) }

// Open opens (or creates) the log in opts.Dir, validates the final
// segment and truncates any torn tail so the log is ready to append.
func Open(opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, fmt.Errorf("wal: empty dir")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{opt: opts, reg: opts.Registry}

	// Abandoned compaction temp files are garbage: the rename never
	// happened, so the old segments are still authoritative.
	tmps, _ := filepath.Glob(filepath.Join(opts.Dir, "*.tmp"))
	for _, t := range tmps {
		os.Remove(t)
	}

	idxs, err := listSegments(opts.Dir)
	if err != nil {
		return nil, err
	}
	if len(idxs) == 0 {
		if err := l.createActive(1); err != nil {
			return nil, err
		}
	} else {
		last := idxs[len(idxs)-1]
		validOff, _, torn, err := scanSegment(filepath.Join(opts.Dir, segmentName(last)), nil)
		if err != nil {
			return nil, err
		}
		if torn {
			if err := os.Truncate(filepath.Join(opts.Dir, segmentName(last)), validOff); err != nil {
				return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
			}
			l.stats.TornTruncations++
			l.reg.Inc(telemetry.MWalTornTruncationsTotal)
		}
		if validOff < int64(len(magic)) {
			// The segment-creation write itself tore: rebuild the file
			// header so the segment is well-formed again.
			if err := l.createActive(last); err != nil {
				return nil, err
			}
		} else {
			f, err := os.OpenFile(filepath.Join(opts.Dir, segmentName(last)), os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, fmt.Errorf("wal: %w", err)
			}
			l.active, l.activeIdx, l.activeSize = f, last, validOff
		}
		for _, idx := range idxs[:len(idxs)-1] {
			fi, err := os.Stat(filepath.Join(opts.Dir, segmentName(idx)))
			if err != nil {
				return nil, fmt.Errorf("wal: %w", err)
			}
			l.sealed = append(l.sealed, idx)
			l.sealedBytes += fi.Size()
		}
	}
	l.publishSize()
	if opts.Fsync == FsyncInterval {
		l.flushStop = make(chan struct{})
		l.flushDone = make(chan struct{})
		go l.flushLoop()
	}
	return l, nil
}

// listSegments returns the segment indices present in dir, ascending.
func listSegments(dir string) ([]uint64, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	idxs := make([]uint64, 0, len(paths))
	for _, p := range paths {
		var idx uint64
		if _, err := fmt.Sscanf(filepath.Base(p), "wal-%d.log", &idx); err == nil {
			idxs = append(idxs, idx)
		}
	}
	sort.Slice(idxs, func(i, k int) bool { return idxs[i] < idxs[k] })
	return idxs, nil
}

// createActive starts a fresh active segment at idx.
func (l *Log) createActive(idx uint64) error {
	f, err := os.OpenFile(filepath.Join(l.opt.Dir, segmentName(idx)),
		os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Write([]byte(magic)); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	l.active, l.activeIdx, l.activeSize = f, idx, int64(len(magic))
	l.dirty = true
	return nil
}

// scanSegment walks one segment file validating framing and checksums.
// Each valid payload is passed to fn (when non-nil). It returns the
// offset after the last valid record, the record count, and whether
// the file ends in a torn (incomplete or checksum-failing) tail. A
// missing or mismatched magic on a file long enough to hold one is
// reported as corruption; a file shorter than the magic is a torn
// segment-creation write (validOff 0).
func scanSegment(path string, fn func(payload []byte) error) (validOff int64, n int, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, false, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()

	head := make([]byte, len(magic))
	hn, err := io.ReadFull(f, head)
	if err == io.ErrUnexpectedEOF || err == io.EOF {
		// Shorter than the magic: the segment-creation write itself
		// tore. Everything goes; the caller truncates to zero and the
		// magic is rewritten on next use.
		_ = hn
		return 0, 0, true, nil
	}
	if err != nil {
		return 0, 0, false, fmt.Errorf("wal: %w", err)
	}
	if string(head) != magic {
		return 0, 0, false, fmt.Errorf("%w: %s: bad magic %q", ErrCorrupt, filepath.Base(path), head)
	}

	off := int64(len(magic))
	hdr := make([]byte, recordHeaderSize)
	var payload []byte
	for {
		if _, err := io.ReadFull(f, hdr); err != nil {
			if err == io.EOF {
				return off, n, false, nil // clean end
			}
			if err == io.ErrUnexpectedEOF {
				return off, n, true, nil // torn header
			}
			return 0, 0, false, fmt.Errorf("wal: %w", err)
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if length == 0 || length > maxRecordBytes {
			return off, n, true, nil // framing damage
		}
		if cap(payload) < int(length) {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := io.ReadFull(f, payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return off, n, true, nil // torn payload
			}
			return 0, 0, false, fmt.Errorf("wal: %w", err)
		}
		if crc32.Checksum(payload, crcTable) != sum {
			return off, n, true, nil // torn or damaged payload
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return 0, 0, false, err
			}
		}
		off += recordHeaderSize + int64(length)
		n++
	}
}

// Append writes one record. The framed record goes out in a single
// write syscall, so a crash can only ever tear the final record.
func (l *Log) Append(payload []byte) error {
	if len(payload) == 0 {
		return fmt.Errorf("wal: empty record")
	}
	if len(payload) > maxRecordBytes {
		return fmt.Errorf("wal: record %d bytes exceeds %d", len(payload), maxRecordBytes)
	}
	buf := make([]byte, recordHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, crcTable))
	copy(buf[recordHeaderSize:], payload)

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if _, err := l.active.Write(buf); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	l.activeSize += int64(len(buf))
	l.dirty = true
	l.stats.Appends++
	l.reg.Inc(telemetry.MWalAppendsTotal)
	if l.opt.Fsync == FsyncAlways {
		if err := l.syncLocked(); err != nil {
			return err
		}
	}
	if l.activeSize >= l.opt.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	l.publishSize()
	return nil
}

// rotateLocked seals the active segment and opens the next one.
func (l *Log) rotateLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.active.Close(); err != nil {
		return fmt.Errorf("wal: seal: %w", err)
	}
	l.sealed = append(l.sealed, l.activeIdx)
	l.sealedBytes += l.activeSize
	if err := l.createActive(l.activeIdx + 1); err != nil {
		return err
	}
	l.stats.Rotations++
	l.reg.Inc(telemetry.MWalRotationsTotal)
	return nil
}

// syncLocked flushes dirty data to stable storage.
func (l *Log) syncLocked() error {
	if !l.dirty {
		return nil
	}
	if err := l.active.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.dirty = false
	l.stats.Fsyncs++
	l.reg.Inc(telemetry.MWalFsyncsTotal)
	return nil
}

// Sync forces dirty data to stable storage regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

// flushLoop is the FsyncInterval background syncer.
func (l *Log) flushLoop() {
	defer close(l.flushDone)
	t := time.NewTicker(l.opt.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			l.mu.Lock()
			if !l.closed {
				// A failed background fsync surfaces on the next Append
				// or Close; nothing to do with it here.
				_ = l.syncLocked()
			}
			l.mu.Unlock()
		case <-l.flushStop:
			return
		}
	}
}

// Replay streams every record, oldest first, through fn. Sealed
// segments must be fully valid (ErrCorrupt otherwise); the final
// segment tolerates a torn tail, which Open has normally already
// truncated. An fn error aborts the replay and is returned.
func (l *Log) Replay(fn func(payload []byte) error) error {
	segs, activeIdx, err := l.replaySnapshot()
	if err != nil {
		return err
	}
	for _, idx := range segs {
		_, n, torn, err := scanSegment(filepath.Join(l.opt.Dir, segmentName(idx)), fn)
		if err != nil {
			return err
		}
		if torn {
			return fmt.Errorf("%w: %s: torn record in sealed segment", ErrCorrupt, segmentName(idx))
		}
		l.noteReplayed(n)
	}
	_, n, _, err := scanSegment(filepath.Join(l.opt.Dir, segmentName(activeIdx)), fn)
	if err != nil {
		return err
	}
	l.noteReplayed(n)
	return nil
}

// replaySnapshot captures the segment set under the lock. Reads go
// through separate descriptors, so appends racing the replay only ever
// add records past the snapshot of the active segment (callers replay
// before serving).
func (l *Log) replaySnapshot() ([]uint64, uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, 0, ErrClosed
	}
	return append([]uint64(nil), l.sealed...), l.activeIdx, nil
}

func (l *Log) noteReplayed(n int) {
	if n > 0 {
		l.reg.Add(telemetry.MWalReplayRecordsTotal, int64(n))
	}
}

// Compact replaces the entire log with the given snapshot records: the
// snapshot is written to a fresh sealed segment (tmp file + rename,
// crash-safe), every older segment is deleted, and appends continue
// into a new active segment. Replaying old-plus-snapshot and
// snapshot-only must converge to the same state, which holds for any
// last-record-wins record schema.
func (l *Log) Compact(snapshot [][]byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	// Seal the current active segment first so the snapshot index is
	// strictly newer than every record it summarizes.
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.active.Close(); err != nil {
		return fmt.Errorf("wal: seal: %w", err)
	}
	oldSegs := append(append([]uint64(nil), l.sealed...), l.activeIdx)
	snapIdx := l.activeIdx + 1

	tmp := filepath.Join(l.opt.Dir, segmentName(snapIdx)+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: compact: %w", err)
	}
	var size int64
	write := func(b []byte) error {
		n, err := f.Write(b)
		size += int64(n)
		return err
	}
	err = write([]byte(magic))
	hdr := make([]byte, recordHeaderSize)
	for _, rec := range snapshot {
		if err != nil {
			break
		}
		if len(rec) == 0 || len(rec) > maxRecordBytes {
			err = fmt.Errorf("wal: compact: bad snapshot record size %d", len(rec))
			break
		}
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(rec)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(rec, crcTable))
		if err = write(hdr); err == nil {
			err = write(rec)
		}
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: compact: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(l.opt.Dir, segmentName(snapIdx))); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: compact: %w", err)
	}
	// The snapshot is durable; the old segments are now redundant. A
	// crash between these removes leaves extra history, which replay
	// tolerates (the snapshot records win by arriving last).
	for _, idx := range oldSegs {
		os.Remove(filepath.Join(l.opt.Dir, segmentName(idx)))
	}
	l.sealed = []uint64{snapIdx}
	l.sealedBytes = size
	if err := l.createActive(snapIdx + 1); err != nil {
		return err
	}
	l.stats.Compactions++
	l.reg.Inc(telemetry.MWalCompactionsTotal)
	l.publishSize()
	return nil
}

// Stats snapshots the log.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.stats
	s.Segments = len(l.sealed) + 1
	s.ActiveBytes = l.activeSize
	s.TotalBytes = l.sealedBytes + l.activeSize
	return s
}

// publishSize updates the size gauge; caller holds l.mu.
func (l *Log) publishSize() {
	l.reg.Set(telemetry.MWalSizeBytes, float64(l.sealedBytes+l.activeSize))
}

// Close syncs and closes the log.
func (l *Log) Close() error {
	flushStop, flushDone, err := l.closeLog()
	if flushStop != nil {
		close(flushStop)
		<-flushDone
	}
	return err
}

// closeLog is the locked portion of Close; it hands the flusher
// channels back so the stop/join happens outside the lock (the
// flusher's tick path takes l.mu itself).
func (l *Log) closeLog() (flushStop, flushDone chan struct{}, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, nil, nil
	}
	err = l.syncLocked()
	if cerr := l.active.Close(); err == nil {
		err = cerr
	}
	l.closed = true
	return l.flushStop, l.flushDone, err
}
