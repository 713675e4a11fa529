package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pab/internal/telemetry"
)

func testOpts(t *testing.T) Options {
	t.Helper()
	return Options{
		Dir:      t.TempDir(),
		Fsync:    FsyncNever,
		Registry: telemetry.NewRegistry(),
	}
}

func mustOpen(t *testing.T, opts Options) *Log {
	t.Helper()
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func collect(t *testing.T, l *Log) [][]byte {
	t.Helper()
	var out [][]byte
	if err := l.Replay(func(p []byte) error {
		out = append(out, append([]byte(nil), p...))
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out
}

func payloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf(`{"rec":%d,"pad":"0123456789abcdef"}`, i))
	}
	return out
}

// TestAppendReplayRoundtrip: what goes in comes back, in order, across
// a close/reopen.
func TestAppendReplayRoundtrip(t *testing.T) {
	opts := testOpts(t)
	l := mustOpen(t, opts)
	want := payloads(25)
	for _, p := range want {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	got := collect(t, l)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := mustOpen(t, opts)
	got = collect(t, l2)
	if len(got) != len(want) {
		t.Fatalf("after reopen: %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestSegmentRotation: a tiny threshold forces multiple segments and
// replay order still matches append order.
func TestSegmentRotation(t *testing.T) {
	opts := testOpts(t)
	opts.SegmentBytes = 128
	l := mustOpen(t, opts)
	want := payloads(40)
	for _, p := range want {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Segments < 3 {
		t.Fatalf("segments = %d, want several (rotation threshold %d)", st.Segments, opts.SegmentBytes)
	}
	if st.Rotations == 0 {
		t.Error("no rotations counted")
	}
	got := collect(t, l)
	if len(got) != len(want) {
		t.Fatalf("replayed %d, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d out of order", i)
		}
	}
}

// tornCase mutilates the final segment one way; Open must recover by
// truncating to the last whole record.
type tornCase struct {
	name string
	tear func(t *testing.T, path string)
	keep int // records expected to survive out of 5
}

func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	idxs, err := listSegments(dir)
	if err != nil || len(idxs) == 0 {
		t.Fatalf("listSegments: %v (%d)", err, len(idxs))
	}
	return filepath.Join(dir, segmentName(idxs[len(idxs)-1]))
}

// TestTornTailTruncation: every flavor of torn final record — partial
// header, partial payload, corrupted checksum, garbage appended — is
// truncated on Open instead of failing startup, and the log accepts
// appends afterwards.
func TestTornTailTruncation(t *testing.T) {
	cases := []tornCase{
		{"partial_header", func(t *testing.T, p string) { chop(t, p, 3) }, 4},
		{"partial_payload", func(t *testing.T, p string) { chop(t, p, recordHeaderSize+5) }, 4},
		{"garbage_appended", func(t *testing.T, p string) {
			f, err := os.OpenFile(p, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			// A half-written header: plausible length, missing payload.
			var hdr [recordHeaderSize]byte
			binary.LittleEndian.PutUint32(hdr[0:4], 64)
			if _, err := f.Write(hdr[:6]); err != nil {
				t.Fatal(err)
			}
		}, 5},
		{"crc_flip", func(t *testing.T, p string) { flipLastByte(t, p) }, 4},
		{"insane_length", func(t *testing.T, p string) {
			f, err := os.OpenFile(p, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			var hdr [recordHeaderSize]byte
			binary.LittleEndian.PutUint32(hdr[0:4], 1<<30)
			if _, err := f.Write(hdr[:]); err != nil {
				t.Fatal(err)
			}
		}, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := testOpts(t)
			l, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range payloads(5) {
				if err := l.Append(p); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			tc.tear(t, lastSegment(t, opts.Dir))

			l2 := mustOpen(t, opts)
			if got := len(collect(t, l2)); got != tc.keep {
				t.Fatalf("survivors = %d, want %d", got, tc.keep)
			}
			if l2.Stats().TornTruncations != 1 {
				t.Errorf("torn truncations = %d, want 1", l2.Stats().TornTruncations)
			}
			// The log must keep working after recovery.
			if err := l2.Append([]byte("post-recovery")); err != nil {
				t.Fatal(err)
			}
			if got := collect(t, l2); string(got[len(got)-1]) != "post-recovery" {
				t.Error("append after torn-tail recovery lost")
			}
		})
	}
}

// chop removes the last n bytes of the file.
func chop(t *testing.T, path string, n int64) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-n); err != nil {
		t.Fatal(err)
	}
}

// flipLastByte corrupts the final payload byte so its CRC fails.
func flipLastByte(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xFF
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestTornMagicRecovered: a crash during segment creation leaves a
// file shorter than the magic; Open rebuilds it.
func TestTornMagicRecovered(t *testing.T) {
	opts := testOpts(t)
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(opts.Dir, segmentName(1)), []byte("PAB"), 0o644); err != nil {
		t.Fatal(err)
	}
	l := mustOpen(t, opts)
	if err := l.Append([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, l); len(got) != 1 || string(got[0]) != "hello" {
		t.Fatalf("replay = %q", got)
	}
}

// TestCorruptSealedSegmentFails: damage in a sealed (non-final)
// segment is not a crash artifact and must fail replay loudly.
func TestCorruptSealedSegmentFails(t *testing.T) {
	opts := testOpts(t)
	opts.SegmentBytes = 128
	l := mustOpen(t, opts)
	for _, p := range payloads(40) {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	idxs, _ := listSegments(opts.Dir)
	if len(idxs) < 3 {
		t.Fatalf("want ≥3 segments, have %d", len(idxs))
	}
	flipLastByte(t, filepath.Join(opts.Dir, segmentName(idxs[0])))
	err := l.Replay(func([]byte) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Replay = %v, want ErrCorrupt", err)
	}
}

// TestCompaction: the snapshot replaces all prior history, old
// segments are deleted, and appends continue after it.
func TestCompaction(t *testing.T) {
	opts := testOpts(t)
	opts.SegmentBytes = 256
	l := mustOpen(t, opts)
	for _, p := range payloads(30) {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	before := l.Stats()
	snap := [][]byte{[]byte("live-1"), []byte("live-2")}
	if err := l.Compact(snap); err != nil {
		t.Fatal(err)
	}
	after := l.Stats()
	if after.TotalBytes >= before.TotalBytes {
		t.Errorf("compaction grew the log: %d -> %d bytes", before.TotalBytes, after.TotalBytes)
	}
	if after.Compactions != 1 {
		t.Errorf("compactions = %d, want 1", after.Compactions)
	}
	if err := l.Append([]byte("post-compact")); err != nil {
		t.Fatal(err)
	}
	got := collect(t, l)
	want := []string{"live-1", "live-2", "post-compact"}
	if len(got) != len(want) {
		t.Fatalf("replay after compact = %d records, want %d", len(got), len(want))
	}
	for i, w := range want {
		if string(got[i]) != w {
			t.Errorf("record %d = %q, want %q", i, got[i], w)
		}
	}

	// Reopen: the compacted shape must survive a restart too.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, opts)
	if got := collect(t, l2); len(got) != 3 {
		t.Fatalf("replay after reopen = %d records, want 3", len(got))
	}
}

// TestCompactionTmpLeftoverIgnored: a crash mid-compaction leaves a
// .tmp file; Open discards it and the old records stand.
func TestCompactionTmpLeftoverIgnored(t *testing.T) {
	opts := testOpts(t)
	l := mustOpen(t, opts)
	for _, p := range payloads(3) {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(opts.Dir, segmentName(99)+".tmp")
	if err := os.WriteFile(tmp, []byte("half-written snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, opts)
	if got := len(collect(t, l2)); got != 3 {
		t.Fatalf("records = %d, want 3", got)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Error("stale .tmp not removed")
	}
}

// TestFsyncPolicies: always syncs per append; never leaves syncing to
// rotation/close; the parser round-trips flag values.
func TestFsyncPolicies(t *testing.T) {
	opts := testOpts(t)
	opts.Fsync = FsyncAlways
	l := mustOpen(t, opts)
	for _, p := range payloads(4) {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.Stats().Fsyncs; got != 4 {
		t.Errorf("FsyncAlways fsyncs = %d, want 4", got)
	}

	for _, tc := range []struct {
		in   string
		want FsyncPolicy
		ok   bool
	}{
		{"always", FsyncAlways, true},
		{"interval", FsyncInterval, true},
		{"never", FsyncNever, true},
		{"ALWAYS", FsyncAlways, true},
		{"", FsyncInterval, true},
		{"sometimes", 0, false},
	} {
		got, err := ParseFsyncPolicy(tc.in)
		if tc.ok && (err != nil || got != tc.want) {
			t.Errorf("ParseFsyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("ParseFsyncPolicy(%q) accepted", tc.in)
		}
	}
}

// TestFsyncIntervalFlushes: the background syncer picks up dirty data.
func TestFsyncIntervalFlushes(t *testing.T) {
	opts := testOpts(t)
	opts.Fsync = FsyncInterval
	opts.SyncInterval = 5 * time.Millisecond
	l := mustOpen(t, opts)
	if err := l.Append([]byte("dirty")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for l.Stats().Fsyncs == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background flusher never synced")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestClosedLogRejects: use after Close errors instead of panicking.
func TestClosedLogRejects(t *testing.T) {
	opts := testOpts(t)
	l := mustOpen(t, opts)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("Append after close = %v, want ErrClosed", err)
	}
	if err := l.Replay(func([]byte) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Errorf("Replay after close = %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Errorf("double close = %v", err)
	}
}
