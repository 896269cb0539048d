package seglog

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func payload(i int) []byte {
	return []byte(fmt.Sprintf(`{"i":%d,"pad":"0123456789abcdef"}`, i))
}

func openT(t *testing.T, dir string, opts Options) (*Store, *OpenResult) {
	t.Helper()
	st, res, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return st, res
}

func appendN(t *testing.T, st *Store, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		if _, err := st.Append(payload(i)); err != nil {
			t.Fatal(err)
		}
	}
}

func wantPayloads(t *testing.T, res *OpenResult, n int) {
	t.Helper()
	if len(res.Payloads) != n {
		t.Fatalf("replayed %d payloads, want %d", len(res.Payloads), n)
	}
	for i, p := range res.Payloads {
		if !bytes.Equal(p, payload(i)) {
			t.Fatalf("payload %d = %s", i, p)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	st, res := openT(t, dir, Options{})
	if len(res.Payloads) != 0 || res.Stats.Segments != 1 {
		t.Fatalf("fresh store: %+v", res.Stats)
	}
	appendN(t, st, 0, 10)
	if _, err := st.Append(payload(10), payload(11)); err != nil { // batch
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	_, res = openT(t, dir, Options{})
	wantPayloads(t, res, 12)
	if res.Stats.TornBytes != 0 || res.Stats.DroppedFrames != 0 {
		t.Fatalf("clean reopen: %+v", res.Stats)
	}
}

func TestRotation(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	st, _ := openT(t, dir, Options{RotateBytes: 256})
	appendN(t, st, 0, 40)
	st.Close()
	st2, res := openT(t, dir, Options{RotateBytes: 256})
	defer st2.Close()
	wantPayloads(t, res, 40)
	if res.Stats.Segments < 3 {
		t.Fatalf("only %d segments after 40 appends at 256-byte rotation",
			res.Stats.Segments)
	}
	// Appends continue in order across the reopen.
	appendN(t, st2, 40, 5)
	st2.Close()
	_, res = openT(t, dir, Options{RotateBytes: 256})
	wantPayloads(t, res, 45)
}

func TestTornTailTruncated(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	st, _ := openT(t, dir, Options{})
	appendN(t, st, 0, 5)
	st.Close()

	// Simulate a crash mid-append: garbage on the active segment's tail.
	segs, _, err := readManifest(filepath.Join(dir, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	active := filepath.Join(dir, segs[len(segs)-1])
	f, err := os.OpenFile(active, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x13, 0x00, 0x00, 0x00, 0xde, 0xad})
	f.Close()

	st2, res := openT(t, dir, Options{}) // strict mode: a torn tail is normal
	wantPayloads(t, res, 5)
	if res.Stats.TornBytes == 0 {
		t.Fatal("torn tail not reported")
	}
	// The tail was physically truncated, so new appends land cleanly.
	appendN(t, st2, 5, 3)
	st2.Close()
	_, res = openT(t, dir, Options{})
	wantPayloads(t, res, 8)
	if res.Stats.TornBytes != 0 {
		t.Fatalf("tail survived the truncation: %+v", res.Stats)
	}
}

func TestMidStoreCorruption(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	st, _ := openT(t, dir, Options{RotateBytes: 256})
	appendN(t, st, 0, 40)
	st.Close()
	segs, _, err := readManifest(filepath.Join(dir, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("need >=3 segments, got %d", len(segs))
	}
	// Flip one payload byte in the first segment.
	first := filepath.Join(dir, segs[0])
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0xff
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, _, err := Open(dir, Options{RotateBytes: 256}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("strict open of corrupt store: %v", err)
	}
	st2, res, err := Open(dir, Options{RotateBytes: 256, Salvage: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if len(res.Payloads) == 0 || len(res.Payloads) >= 40 {
		t.Fatalf("salvaged %d of 40", len(res.Payloads))
	}
	for i, p := range res.Payloads {
		if !bytes.Equal(p, payload(i)) {
			t.Fatalf("salvaged payload %d = %s", i, p)
		}
	}
	if res.Stats.DroppedFrames == 0 {
		t.Fatal("salvage did not count dropped frames")
	}
}

// TestSalvageRebuildsStoreForAppends is the regression test for appends made
// through a salvage-opened handle: before the fix, salvage stopped replay at
// mid-store damage without positioning the writer, so the first append
// overwrote the active segment's header and every record appended after a
// salvage open vanished on the next open.
func TestSalvageRebuildsStoreForAppends(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	st, _ := openT(t, dir, Options{RotateBytes: 256})
	appendN(t, st, 0, 40)
	st.Close()
	segs, _, err := readManifest(filepath.Join(dir, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte in the first (non-final) segment.
	first := filepath.Join(dir, segs[0])
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0xff
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, res, err := Open(dir, Options{RotateBytes: 256, Salvage: true})
	if err != nil {
		t.Fatal(err)
	}
	salvaged := len(res.Payloads)
	if salvaged == 0 || salvaged >= 40 {
		t.Fatalf("salvaged %d of 40", salvaged)
	}
	// The damaged segments were compacted away on open.
	if res.Stats.Segments != 1 {
		t.Fatalf("%d segments after salvage open, want 1", res.Stats.Segments)
	}
	// Records appended through the salvaged handle are durable.
	appendN(t, st2, salvaged, 2)
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	// Strict reopen must succeed — the damage is gone — and replay both the
	// salvaged prefix and the post-salvage appends.
	st3, res, err := Open(dir, Options{RotateBytes: 256})
	if err != nil {
		t.Fatalf("strict reopen after salvage: %v", err)
	}
	defer st3.Close()
	wantPayloads(t, res, salvaged+2)
	if res.Stats.DroppedFrames != 0 || res.Stats.TornBytes != 0 {
		t.Fatalf("reopen after salvage rebuild: %+v", res.Stats)
	}
}

func TestCompact(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	st, _ := openT(t, dir, Options{RotateBytes: 256})
	appendN(t, st, 0, 30)
	live := [][]byte{payload(0), payload(1), payload(2)}
	if _, err := st.Compact(live); err != nil {
		t.Fatal(err)
	}
	// The store stays usable after compaction.
	appendN(t, st, 3, 2)
	st.Close()
	_, res := openT(t, dir, Options{})
	wantPayloads(t, res, 5)
	if res.Stats.Segments != 1 {
		t.Fatalf("%d segments after compaction", res.Stats.Segments)
	}
	// Old segments are gone from disk.
	names, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"))
	if len(names) != 1 {
		t.Fatalf("%d segment files after compaction: %v", len(names), names)
	}
}

func TestDebrisCleaned(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	st, _ := openT(t, dir, Options{})
	appendN(t, st, 0, 3)
	st.Close()
	// An unreferenced segment (crashed rotation) and a manifest temp file.
	orphan := filepath.Join(dir, "seg-000000099.log")
	os.WriteFile(orphan, []byte(SegMagic+" v1\n"), 0o644)
	os.WriteFile(filepath.Join(dir, ".manifest-123"), []byte("junk"), 0o644)
	_, res := openT(t, dir, Options{})
	wantPayloads(t, res, 3)
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("orphan segment survived open")
	}
	if _, err := os.Stat(filepath.Join(dir, ".manifest-123")); !os.IsNotExist(err) {
		t.Fatal("manifest temp file survived open")
	}
}

func TestMissingManifestWithDataRefused(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	st, _ := openT(t, dir, Options{})
	appendN(t, st, 0, 3)
	st.Close()
	if err := os.Remove(filepath.Join(dir, "MANIFEST")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrBadManifest) {
		t.Fatalf("open without manifest over data: %v", err)
	}
}

func TestVersionRefused(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	st, _ := openT(t, dir, Options{})
	st.Close()
	m := filepath.Join(dir, "MANIFEST")
	data, _ := os.ReadFile(m)
	data = bytes.Replace(data, []byte(" v1\n"), []byte(" v9\n"), 1)
	os.WriteFile(m, data, 0o644)
	if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrVersion) {
		t.Fatalf("future manifest version accepted: %v", err)
	}
}

func TestSyncBatching(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	st, _ := openT(t, dir, Options{SyncEvery: 64})
	appendN(t, st, 0, 10)
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	st.Close()
	_, res := openT(t, dir, Options{})
	wantPayloads(t, res, 10)
}

func TestConcurrentAppend(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	st, _ := openT(t, dir, Options{RotateBytes: 1024})
	const writers, each = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := st.Append(payload(w*each + i)); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st.Close()
	_, res := openT(t, dir, Options{})
	if len(res.Payloads) != writers*each {
		t.Fatalf("replayed %d of %d", len(res.Payloads), writers*each)
	}
}
