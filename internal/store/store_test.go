package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// collect replays dir into a flat slice of (snapshot, payload) pairs.
func collect(t *testing.T, dir string) (recs [][]byte, snaps []bool, st ReplayStats) {
	t.Helper()
	st, err := ReplayDir(dir, func(rec []byte, snap bool) error {
		recs = append(recs, append([]byte(nil), rec...))
		snaps = append(snaps, snap)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return recs, snaps, st
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{[]byte("alpha"), {}, []byte("gamma with a longer payload")}
	for _, r := range want {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs, snaps, st := collect(t, dir)
	if len(recs) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(want))
	}
	for i := range want {
		if !bytes.Equal(recs[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, recs[i], want[i])
		}
		if snaps[i] {
			t.Fatalf("record %d flagged as snapshot", i)
		}
	}
	if st.Records != 3 || st.Torn != 0 || st.Snapshots != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// oldFrame is the frame encoder append used before it wrote the header
// and the record in place: one buffer, the record copied into it, the
// CRC over flag ‖ record.
func oldFrame(rec []byte, flag byte) []byte {
	frame := make([]byte, frameHeaderLen+len(rec))
	binary.LittleEndian.PutUint32(frame[0:], uint32(len(rec)))
	frame[8] = flag
	copy(frame[frameHeaderLen:], rec)
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(frame[8:], crcTable))
	return frame
}

// noSync skips fsync, for tests that do not crash the machine.
var noSync = Options{Sync: func(*os.File) error { return nil }}

// TestAppendSegmentsByteIdentical pins the segment format across the
// in-place append: data and snapshot records of every size land as the
// bytes the copying encoder wrote.
func TestAppendSegmentsByteIdentical(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, noSync)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var want []byte
	for _, n := range []int{0, 1, 9, 1000, 70000} {
		rec := make([]byte, n)
		rng.Read(rec)
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
		want = append(want, oldFrame(rec, flagData)...)
	}
	segment := func(seq int) []byte {
		t.Helper()
		got, err := os.ReadFile(filepath.Join(dir, segmentName(seq)))
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	if !bytes.Equal(segment(1), want) {
		t.Fatal("data segment differs from the copying encoder's frames")
	}
	// Compact starts segment 2 with the snapshot record alone.
	snap := []byte("snapshot record")
	if err := j.Compact(snap); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(segment(2), oldFrame(snap, flagSnapshot)) {
		t.Fatal("snapshot segment differs from the copying encoder's frame")
	}
}

// splitParts cuts rec into a random number of parts at random points,
// empty parts included.
func splitParts(rng *rand.Rand, rec []byte) [][]byte {
	var parts [][]byte
	for len(rec) > 0 || rng.Intn(3) == 0 {
		n := rng.Intn(len(rec) + 1)
		if rng.Intn(4) == 0 {
			n = 0
		}
		parts = append(parts, rec[:n])
		rec = rec[n:]
		if len(parts) > 12 {
			parts = append(parts, rec)
			break
		}
	}
	return parts
}

// TestAppendVFramesJoinedParts: a record appended as parts, split at
// random points with empty parts among them, lands as the frame Append
// writes of the joined record, and a snapshot given as parts as the
// frame Compact writes.
func TestAppendVFramesJoinedParts(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 40; iter++ {
		wdir, gdir := t.TempDir(), t.TempDir()
		jw, err := Open(wdir, noSync)
		if err != nil {
			t.Fatal(err)
		}
		jg, err := Open(gdir, noSync)
		if err != nil {
			t.Fatal(err)
		}
		var recs [][]byte
		for k := 1 + rng.Intn(5); k > 0; k-- {
			rec := make([]byte, rng.Intn(3000))
			rng.Read(rec)
			werr, gerr := jw.Append(rec), jg.AppendV(splitParts(rng, rec)...)
			if rng.Intn(4) == 0 {
				werr, gerr = jw.Compact(rec), jg.CompactV(splitParts(rng, rec)...)
				recs = recs[:0]
			}
			if werr != nil || gerr != nil {
				t.Fatal(werr, gerr)
			}
			recs = append(recs, rec)
		}
		jw.Close()
		jg.Close()
		if got, _, _ := collect(t, gdir); !slices.EqualFunc(got, recs, bytes.Equal) {
			t.Fatalf("iter %d: the gathered journal does not replay its records", iter)
		}
		wseqs, _ := segmentsIn(wdir)
		gseqs, _ := segmentsIn(gdir)
		if !slices.Equal(wseqs, gseqs) {
			t.Fatalf("iter %d: segments %v from Append, %v from AppendV", iter, wseqs, gseqs)
		}
		for _, seq := range wseqs {
			w, _ := os.ReadFile(filepath.Join(wdir, segmentName(seq)))
			g, _ := os.ReadFile(filepath.Join(gdir, segmentName(seq)))
			if !bytes.Equal(w, g) {
				t.Fatalf("iter %d: segment %d differs between Append and AppendV", iter, seq)
			}
		}
	}
}

// TestAppendVLimitsTheSum: the record-size limit applies to the parts'
// sum, though no part is over it, and a refused record writes nothing:
// the next one follows the record before it.
func TestAppendVLimitsTheSum(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, noSync)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append([]byte("before")); err != nil {
		t.Fatal(err)
	}
	part := make([]byte, 1<<20)
	parts := make([][]byte, maxRecord/len(part)+1) // one view, many times
	for i := range parts {
		parts[i] = part
	}
	if err := j.AppendV(parts...); err == nil {
		t.Fatal("a record of parts summing past the limit was appended")
	}
	if err := j.CompactV(parts...); err == nil {
		t.Fatal("a snapshot of parts summing past the limit was written")
	}
	if err := j.AppendV([]byte("af"), []byte("ter")); err != nil {
		t.Fatal(err)
	}
	recs, _, st := collect(t, dir)
	if len(recs) != 2 || string(recs[0]) != "before" || string(recs[1]) != "after" || st.Torn != 0 {
		t.Fatalf("replayed %q, torn %d", recs, st.Torn)
	}
}

// TestAppendVTornBetweenParts: a crash can stop a multi-part append at
// any part boundary. Cut there, the segment replays exactly the records
// before it, and Open truncates the torn tail so the next append
// extends that prefix.
func TestAppendVTornBetweenParts(t *testing.T) {
	src := t.TempDir()
	j, err := Open(src, noSync)
	if err != nil {
		t.Fatal(err)
	}
	prior := [][]byte{[]byte("first"), []byte("second record")}
	for _, rec := range prior {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	parts := [][]byte{[]byte("head"), {}, bytes.Repeat([]byte{7}, 100), []byte("x"), bytes.Repeat([]byte{9}, 40)}
	if err := j.AppendV(parts...); err != nil {
		t.Fatal(err)
	}
	j.Close()
	full, err := os.ReadFile(filepath.Join(src, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	// The frame starts where the prior records end: its header, then
	// each part, is one write.
	start := len(full) - frameHeaderLen - len(bytes.Join(parts, nil))
	cuts := []int{start, start + frameHeaderLen}
	for _, p := range parts {
		cuts = append(cuts, cuts[len(cuts)-1]+len(p))
	}
	for _, cut := range cuts[:len(cuts)-1] {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		recs, _, st := collect(t, dir)
		if len(recs) != len(prior) || st.Torn != cut-start {
			t.Fatalf("cut at %d: replayed %d records, torn %d", cut, len(recs), st.Torn)
		}
		for i := range prior {
			if !bytes.Equal(recs[i], prior[i]) {
				t.Fatalf("cut at %d: record %d = %q", cut, i, recs[i])
			}
		}
		j2, err := Open(dir, noSync)
		if err != nil {
			t.Fatal(err)
		}
		if err := j2.AppendV([]byte("res"), []byte("umed")); err != nil {
			t.Fatal(err)
		}
		j2.Close()
		recs, _, st = collect(t, dir)
		if st.Torn != 0 || len(recs) != len(prior)+1 || string(recs[len(prior)]) != "resumed" {
			t.Fatalf("cut at %d: after reopen replayed %d records, torn %d", cut, len(recs), st.Torn)
		}
	}
	if recs, _, _ := collect(t, src); len(recs) != 3 || !bytes.Equal(recs[2], bytes.Join(parts, nil)) {
		t.Fatal("the whole segment does not replay the gathered record")
	}
}

func TestSegmentRotationPreservesOrder(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{SegmentBytes: 64}) // rotate every couple of records
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		if err := j.Append([]byte(fmt.Sprintf("record-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if seqs, _ := segmentsIn(dir); len(seqs) < 3 {
		t.Fatalf("expected rotation to produce multiple segments, got %d", len(seqs))
	}
	recs, _, _ := collect(t, dir)
	if len(recs) != n {
		t.Fatalf("replayed %d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		if want := fmt.Sprintf("record-%03d", i); string(r) != want {
			t.Fatalf("record %d = %q, want %q", i, r, want)
		}
	}
}

func TestTornTailDroppedAndTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := j.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-write: append half a frame.
	seg := filepath.Join(dir, segmentName(1))
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{9, 0, 0, 0, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recs, _, st := collect(t, dir)
	if len(recs) != 5 || st.Torn == 0 {
		t.Fatalf("got %d records, torn=%d; want 5 records with a torn tail", len(recs), st.Torn)
	}

	// Reopen: the torn tail must be truncated and new appends must land
	// after the valid prefix.
	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Append([]byte("after-crash")); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, st = collect(t, dir)
	if st.Torn != 0 {
		t.Fatalf("torn bytes survived reopen: %+v", st)
	}
	if len(recs) != 6 || string(recs[5]) != "after-crash" {
		t.Fatalf("after reopen got %d records (last %q), want 6 ending in after-crash", len(recs), recs[len(recs)-1])
	}
}

func TestCorruptCRCMidSegmentIsAnError(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{SegmentBytes: 32})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := j.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a payload bit in the FIRST segment: this is not a torn tail
	// (later segments exist), so replay must fail loudly.
	seg := filepath.Join(dir, segmentName(1))
	buf, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0x01
	if err := os.WriteFile(seg, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayDir(dir, func([]byte, bool) error { return nil }); err == nil {
		t.Fatal("replay of mid-journal corruption succeeded; want error")
	}
}

func TestCorruptTailOfLastSegmentIsTolerated(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := j.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segmentName(1))
	buf, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0x01 // corrupt the last record's payload
	if err := os.WriteFile(seg, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, _, st := collect(t, dir)
	if len(recs) != 3 || st.Torn == 0 {
		t.Fatalf("got %d records torn=%d, want 3 records with torn tail", len(recs), st.Torn)
	}
}

func TestCompactSnapshotsAndDropsOldSegments(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{SegmentBytes: 48})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := j.Append([]byte(fmt.Sprintf("old-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Compact([]byte("SNAPSHOT")); err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte("tail-0")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	seqs, _ := segmentsIn(dir)
	if len(seqs) != 1 {
		t.Fatalf("compaction left %d segments, want 1", len(seqs))
	}
	recs, snaps, st := collect(t, dir)
	if len(recs) != 2 || !snaps[0] || string(recs[0]) != "SNAPSHOT" || string(recs[1]) != "tail-0" {
		t.Fatalf("post-compact replay = %q snaps=%v", recs, snaps)
	}
	if st.Snapshots != 1 {
		t.Fatalf("stats = %+v, want 1 snapshot", st)
	}
}

func TestFsyncFailureSurfacesFromAppend(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("disk on fire")
	fail := false
	j, err := Open(dir, Options{Sync: func(f *os.File) error {
		if fail {
			return boom
		}
		return f.Sync()
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	fail = true
	if err := j.Append([]byte("lost")); !errors.Is(err, boom) {
		t.Fatalf("Append with failing fsync = %v, want wrapped %v", err, boom)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	j, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
}

// TestDoubleReplayIdentical pins the property the cluster's recovery
// leans on: replaying the same directory twice yields byte-identical
// record streams.
func TestDoubleReplayIdentical(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		rec := make([]byte, rng.Intn(60))
		rng.Read(rec)
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
		if i == 25 {
			if err := j.Compact([]byte("snap")); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	r1, s1, st1 := collect(t, dir)
	r2, s2, st2 := collect(t, dir)
	if st1 != st2 || len(r1) != len(r2) {
		t.Fatalf("replays diverge: %+v vs %+v", st1, st2)
	}
	for i := range r1 {
		if !bytes.Equal(r1[i], r2[i]) || s1[i] != s2[i] {
			t.Fatalf("record %d differs between replays", i)
		}
	}
}

// TestRandomTruncationNeverCorrupts is the crash-point property test:
// for every possible truncation point of a journal, replay yields a
// clean prefix of the appended records (never garbage, never an error),
// and a reopened journal accepts further appends.
func TestRandomTruncationNeverCorrupts(t *testing.T) {
	base := t.TempDir()
	src := filepath.Join(base, "src")
	j, err := Open(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 8; i++ {
		rec := []byte(fmt.Sprintf("payload-%d-%s", i, string(make([]byte, i*3))))
		want = append(want, rec)
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(filepath.Join(src, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= len(full); cut++ {
		dir := filepath.Join(base, fmt.Sprintf("cut-%d", cut))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		recs, _, _ := collect(t, dir)
		for i, r := range recs {
			if !bytes.Equal(r, want[i]) {
				t.Fatalf("cut %d: record %d = %q, want prefix of original", cut, i, r)
			}
		}
		j2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if err := j2.Append([]byte("resumed")); err != nil {
			t.Fatalf("cut %d: append after reopen: %v", cut, err)
		}
		if err := j2.Close(); err != nil {
			t.Fatal(err)
		}
		recs, _, st := collect(t, dir)
		if st.Torn != 0 || len(recs) == 0 || string(recs[len(recs)-1]) != "resumed" {
			t.Fatalf("cut %d: post-resume replay recs=%d torn=%d", cut, len(recs), st.Torn)
		}
	}
}

// FuzzReplaySegment feeds arbitrary bytes as a journal segment: replay
// must never panic, and whatever records it yields must re-encode into
// a journal that replays identically (decode/encode agreement).
func FuzzReplaySegment(f *testing.F) {
	// Seed with a valid two-record segment plus junk variants.
	dir := f.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	j.Append([]byte("seed-one"))
	j.Append([]byte("seed-two"))
	j.Close()
	seed, _ := os.ReadFile(filepath.Join(dir, segmentName(1)))
	f.Add(seed)
	f.Add(seed[:len(seed)-3])
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4, 5})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), data, 0o644); err != nil {
			t.Skip()
		}
		var recs [][]byte
		var snaps []bool
		if _, err := ReplayDir(dir, func(rec []byte, snap bool) error {
			recs = append(recs, append([]byte(nil), rec...))
			snaps = append(snaps, snap)
			return nil
		}); err != nil {
			return // corruption detected is a valid outcome
		}
		// Round-trip: re-append the recovered records and replay again.
		dir2 := t.TempDir()
		j, err := Open(dir2, noSync)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range recs {
			var aerr error
			if snaps[i] {
				aerr = j.append(flagSnapshot, r)
			} else {
				aerr = j.Append(r)
			}
			if aerr != nil {
				t.Fatal(aerr)
			}
		}
		j.Close()
		i := 0
		if _, err := ReplayDir(dir2, func(rec []byte, snap bool) error {
			if i >= len(recs) || !bytes.Equal(rec, recs[i]) || snap != snaps[i] {
				t.Fatalf("round-trip record %d mismatch", i)
			}
			i++
			return nil
		}); err != nil {
			t.Fatalf("round-trip replay: %v", err)
		}
		if i != len(recs) {
			t.Fatalf("round-trip yielded %d of %d records", i, len(recs))
		}
	})
}
