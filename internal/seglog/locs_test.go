package seglog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// readAll reads every locator back and checks it against payload(from+i).
func readAll(t *testing.T, st *Store, locs []Loc, from int) {
	t.Helper()
	for i, loc := range locs {
		p, err := st.ReadFrame(loc)
		if err != nil {
			t.Fatalf("frame %d: %v", from+i, err)
		}
		if !bytes.Equal(p, payload(from+i)) {
			t.Fatalf("frame %d read back %s", from+i, p)
		}
	}
}

// TestSeglogLocsReadBack: the locators Append, Open and Compact hand out
// read back their payloads, across rotation, reopen and compaction, and a
// compaction retires the earlier ones.
func TestSeglogLocsReadBack(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	st, _ := openT(t, dir, Options{RotateBytes: 200})
	var locs []Loc
	for i := 0; i < 20; i++ {
		l, err := st.Append(payload(2*i), payload(2*i+1))
		if err != nil {
			t.Fatal(err)
		}
		locs = append(locs, l...)
	}
	readAll(t, st, locs, 0)
	if locs[0].Seg == locs[len(locs)-1].Seg {
		t.Fatal("the appends never rotated")
	}
	st.Close()
	if _, err := st.ReadFrame(locs[0]); err == nil {
		t.Fatal("read through a closed store")
	}

	st, res := openT(t, dir, Options{RotateBytes: 200})
	wantPayloads(t, res, 40)
	if len(res.Locs) != 40 {
		t.Fatalf("open returned %d locators for 40 payloads", len(res.Locs))
	}
	for i := range locs {
		if res.Locs[i] != locs[i] {
			t.Fatalf("frame %d: open located %+v, append %+v", i, res.Locs[i], locs[i])
		}
	}
	readAll(t, st, res.Locs, 0)

	live := [][]byte{payload(0), payload(1), payload(2)}
	clocs, err := st.Compact(live)
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, st, clocs, 0)
	if _, err := st.ReadFrame(locs[39]); err == nil {
		t.Fatal("a locator from before the compaction still reads")
	}
	more, err := st.Append(payload(3))
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, st, append(clocs, more...), 0)
	st.Close()
}

// openFDs counts this process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count open files: %v", err)
	}
	return len(ents)
}

// TestSeglogReadsHoldNoHandles: reading frames spread over many rotated
// segments leaves no file handles behind, so a long-lived store that is read
// across its whole history does not grow its open-file count.
func TestSeglogReadsHoldNoHandles(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	st, _ := openT(t, dir, Options{RotateBytes: 64})
	defer st.Close()
	var locs []Loc
	for i := 0; i < 200; i++ {
		l, err := st.Append(payload(i))
		if err != nil {
			t.Fatal(err)
		}
		locs = append(locs, l...)
	}
	if segs := locs[len(locs)-1].Seg - locs[0].Seg + 1; segs < 100 {
		t.Fatalf("200 appends spread over only %d segments", segs)
	}
	before := openFDs(t)
	for round := 0; round < 3; round++ {
		readAll(t, st, locs, 0)
	}
	if after := openFDs(t); after > before {
		t.Fatalf("reading %d frames left %d more open files", len(locs), after-before)
	}
}

// TestSeglogSalvageOpenLocs: after a salvage open rebuilds the store, the
// locators it returns point into the rebuilt segment.
func TestSeglogSalvageOpenLocs(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	st, _ := openT(t, dir, Options{RotateBytes: 200})
	appendN(t, st, 0, 30)
	st.Close()
	_, res := openT(t, dir, Options{})
	first := filepath.Join(dir, segName(res.Locs[0].Seg))
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0xff // the first segment's last frame
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st, res = openT(t, dir, Options{Salvage: true})
	defer st.Close()
	if res.Stats.DroppedFrames == 0 || len(res.Locs) != len(res.Payloads) {
		t.Fatalf("salvage: %+v with %d locators", res.Stats, len(res.Locs))
	}
	readAll(t, st, res.Locs, 0)
}

// TestSeglogReadFrameCorrupt: a frame damaged on disk after it was located
// is an ErrCorrupt read — whether the payload changed, the header changed,
// or the whole frame was rewritten with a matching CRC — and a frame cut
// off the end of the file is an error too. Never different bytes.
func TestSeglogReadFrameCorrupt(t *testing.T) {
	for _, tc := range []struct {
		name    string
		damage  func(frame []byte)
		corrupt bool
	}{
		{"payload", func(f []byte) { f[frameHeaderLen+3] ^= 0x01 }, true},
		{"length", func(f []byte) { f[0]++ }, true},
		{"crc", func(f []byte) { f[5] ^= 0x80 }, true},
		{"rewritten", func(f []byte) {
			f[frameHeaderLen+3] ^= 0x01
			binary.LittleEndian.PutUint32(f[4:8],
				crc32.Checksum(f[frameHeaderLen:], crcTable))
		}, true},
		{"truncated", nil, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "store")
			st, _ := openT(t, dir, Options{})
			defer st.Close()
			locs, err := st.Append(payload(0), payload(1))
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, segName(locs[1].Seg))
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if tc.damage != nil {
				tc.damage(data[locs[1].Off:])
			} else {
				data = data[:len(data)-4]
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			p, err := st.ReadFrame(locs[1])
			if err == nil {
				t.Fatalf("damaged frame read back as %s", p)
			}
			if tc.corrupt && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("damaged frame: %v, want ErrCorrupt", err)
			}
			readAll(t, st, locs[:1], 0) // the frame before it is intact
		})
	}
}

// TestSeglogManifestRejectsUnnumberedSegments: a locator names its segment
// by number, so the manifest must list only seg-<number>.log files.
func TestSeglogManifestRejectsUnnumberedSegments(t *testing.T) {
	for _, name := range []string{"seg-000000001.log", "seg-1.log"} {
		if n, ok := segNumber(name); !ok || n != 1 {
			t.Fatalf("segNumber(%q) = %d, %v", name, n, ok)
		}
	}
	for _, name := range []string{"000000001.log", "seg-000000001", "seg-x.log",
		"seg-.log", "seg--1.log", "xseg-1.log"} {
		if _, ok := segNumber(name); ok {
			t.Fatalf("segNumber accepted %q", name)
		}
	}
	dir := filepath.Join(t.TempDir(), "store")
	st, _ := openT(t, dir, Options{})
	st.segs = []string{"seg-x.log"}
	if err := st.writeManifest(); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrBadManifest) {
		t.Fatalf("open with an unnumbered segment: %v, want ErrBadManifest", err)
	}
}

// TestSeglogManifestRejectsReusedSegments: a manifest whose names do not
// identify distinct segments past which next lies is corrupt. Opened as it
// was, "seg-1.log" gave locators ReadFrame could not resolve, a repeated
// segment name made a salvage compaction delete the segment it had just
// written, and next at or below a live number made the next rotation
// truncate that live segment.
func TestSeglogManifestRejectsReusedSegments(t *testing.T) {
	for _, tc := range []struct{ body, file string }{
		{`{"next":2,"segments":["seg-1.log"]}`, "seg-1.log"},
		{`{"next":3,"segments":["seg-000000001.log","seg-000000001.log"]}`, segName(1)},
		{`{"next":1,"segments":["seg-000000001.log"]}`, segName(1)},
		{`{"next":5,"segments":["seg-000000002.log","seg-000000001.log"]}`, segName(1)},
	} {
		dir := filepath.Join(t.TempDir(), "store")
		st, _ := openT(t, dir, Options{})
		appendN(t, st, 0, 2)
		st.Close()
		if tc.file != segName(1) {
			if err := os.Rename(filepath.Join(dir, segName(1)),
				filepath.Join(dir, tc.file)); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, manifestName),
			sealManifest([]byte(tc.body)), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Open(dir, Options{Salvage: true}); !errors.Is(err, ErrBadManifest) {
			t.Fatalf("%s: open = %v, want ErrBadManifest", tc.body, err)
		}
		if _, err := os.Stat(filepath.Join(dir, tc.file)); err != nil {
			t.Fatalf("%s: segment gone after a refused open: %v", tc.body, err)
		}
	}
}
