package seglog

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// sealManifest wraps a manifest body in a valid header and checksum line.
func sealManifest(body []byte) []byte {
	return fmt.Appendf(nil, "%s v%d\n%08x %s\n", ManifestMagic, Version,
		crc32.Checksum(body, crcTable), body)
}

// FuzzSeglogOpen feeds Open arbitrary on-disk bytes. seg is written as the
// segment file name (seg-000000001.log unless name is another
// seg-<number>.log), and manifest as MANIFEST: verbatim, or, when sealed, as
// the body of a manifest with a valid header and checksum, so the fuzzer
// reaches the segment parser and the manifest's JSON checks instead of
// stopping at the CRC. Open must not panic, and every Loc it returns must
// read back through ReadFrame as the payload it returned. A store that
// opens must also take an append that rotates, and reopen to the same
// payloads plus the new one.
func FuzzSeglogOpen(f *testing.F) {
	dir := f.TempDir()
	st, _, err := Open(dir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := st.Append(payload(i)); err != nil {
			f.Fatal(err)
		}
	}
	st.Close()
	manifest, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		f.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		f.Fatal(err)
	}
	body := []byte(`{"next":2,"segments":["seg-000000001.log"]}`)
	torn := append(bytes.Clone(seg), 9, 0, 0, 0, 1, 2)
	damaged := bytes.Clone(seg)
	damaged[len(damaged)-40] ^= 0xff
	f.Add(manifest, false, segName(1), seg, false)
	f.Add(body, true, segName(1), seg, false)
	f.Add(body, true, segName(1), torn, false)
	f.Add(body, true, segName(1), damaged, true)
	f.Add([]byte(`{"next":3,"segments":["seg-000000001.log","seg-000000001.log"]}`),
		true, segName(1), damaged, true)
	f.Add([]byte{}, false, "", []byte{}, false)
	// The manifests TestSeglogManifestRejectsReusedSegments pins.
	f.Add([]byte(`{"next":1,"segments":["seg-000000001.log"]}`), true,
		segName(1), seg, false)
	f.Add([]byte(`{"next":2,"segments":["seg-1.log"]}`), true, "seg-1.log", seg, false)
	f.Add([]byte(`{"next":1,"segments":["seg-000000001.log","seg-000000001.log"]}`),
		true, segName(1), damaged, true)

	f.Fuzz(func(t *testing.T, manifest []byte, sealed bool, name string,
		seg []byte, salvage bool) {
		dir := t.TempDir()
		if _, ok := segNumber(name); !ok || name != filepath.Base(name) {
			name = segName(1)
		}
		if err := os.WriteFile(filepath.Join(dir, name), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		if sealed {
			manifest = sealManifest(manifest)
		}
		if err := os.WriteFile(filepath.Join(dir, manifestName), manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		opts := Options{Salvage: salvage, RotateBytes: 1}
		st, res, err := Open(dir, opts)
		if err != nil {
			return
		}
		if len(res.Locs) != len(res.Payloads) {
			t.Fatalf("%d locs for %d payloads", len(res.Locs), len(res.Payloads))
		}
		want := make([][]byte, len(res.Payloads))
		for i, loc := range res.Locs {
			p, err := st.ReadFrame(loc)
			if err != nil {
				t.Fatalf("payload %d: %v", i, err)
			}
			if !bytes.Equal(p, res.Payloads[i]) {
				t.Fatalf("payload %d read back %q, Open returned %q", i, p, res.Payloads[i])
			}
			want[i] = bytes.Clone(p)
		}
		extra := []byte("appended after open")
		if _, err := st.Append(extra); err != nil {
			t.Fatalf("append to an opened store: %v", err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st, res, err = Open(dir, opts)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer st.Close()
		want = append(want, extra)
		if len(res.Payloads) != len(want) {
			t.Fatalf("reopen replayed %d payloads, want %d", len(res.Payloads), len(want))
		}
		for i := range want {
			if !bytes.Equal(res.Payloads[i], want[i]) {
				t.Fatalf("reopen payload %d = %q, want %q", i, res.Payloads[i], want[i])
			}
		}
	})
}
