package seglog

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// Migration suffixes. The legacy file is preserved, not destroyed: after a
// successful migration the original bytes live on at <path>.legacy (inert —
// the store directory at path is now the data) and can be deleted by hand.
const (
	migrateSuffix = ".migrate"
	legacySuffix  = ".legacy"
)

// Migrate ensures path holds a seglog store directory, converting a legacy
// single-file database in place when it finds one. convert turns the legacy
// file's bytes into the record payloads to seed the store with; a convert
// error aborts the migration with the legacy file untouched.
//
// The swap cannot be a single atomic rename (a directory cannot rename over
// a file), so it is staged with every window recoverable:
//
//  1. build the complete store at <path>.migrate (stale ones are rebuilt)
//  2. rename <path> -> <path>.legacy, fsync the parent
//  3. rename <path>.migrate -> <path>, fsync the parent
//
// A crash during 1 leaves the legacy file authoritative. A crash between 2
// and 3 leaves path missing with the built store at <path>.migrate; the next
// Migrate finishes step 3. If only <path>.legacy survives, the store is
// rebuilt from it. Re-running Migrate on an already-migrated path (a
// directory) is a no-op, making the whole operation idempotent.
func Migrate(path string, opts Options, convert func(data []byte) ([][]byte, error)) error {
	if path == "" {
		return errors.New("seglog: empty path")
	}
	tmp, bak := path+migrateSuffix, path+legacySuffix
	src := path
	fi, err := os.Stat(path)
	switch {
	case err == nil && fi.IsDir():
		return nil // already a store
	case err == nil:
		// Legacy file: fall through and convert it.
	case os.IsNotExist(err):
		if di, derr := os.Stat(tmp); derr == nil && di.IsDir() && storeComplete(tmp) {
			// Crashed between steps 2 and 3: the built store is durable,
			// only the final rename is missing.
			if err := os.Rename(tmp, path); err != nil {
				return fmt.Errorf("seglog: migrate: %w", err)
			}
			return FsyncDir(filepath.Dir(path))
		}
		if bi, berr := os.Stat(bak); berr == nil && !bi.IsDir() {
			src = bak // step 2 done but the built store is unusable: rebuild
			break
		}
		// Nothing to migrate; the caller opens a fresh store at path. An
		// incomplete .migrate build with no source left to rebuild it from
		// is unrecoverable debris — without this, nothing ever deletes it.
		os.RemoveAll(tmp)
		return nil
	default:
		return fmt.Errorf("seglog: migrate: %w", err)
	}
	data, err := os.ReadFile(src)
	if err != nil {
		return fmt.Errorf("seglog: migrate: %w", err)
	}
	payloads, err := convert(data)
	if err != nil {
		return err
	}
	if err := os.RemoveAll(tmp); err != nil {
		return fmt.Errorf("seglog: migrate: %w", err)
	}
	// Build with batched syncs — Close flushes everything — then make the
	// directory tree itself durable before any rename publishes it.
	bopts := opts
	bopts.SyncEvery = 1024
	st, _, err := Open(tmp, bopts)
	if err != nil {
		return err
	}
	for len(payloads) > 0 {
		n := min(len(payloads), 1024)
		if _, err := st.Append(payloads[:n]...); err != nil {
			st.Close()
			return err
		}
		payloads = payloads[n:]
	}
	if err := st.Close(); err != nil {
		return err
	}
	if err := FsyncDir(filepath.Dir(path)); err != nil {
		return err
	}
	if src == path {
		if err := os.Rename(path, bak); err != nil {
			return fmt.Errorf("seglog: migrate: %w", err)
		}
		if err := FsyncDir(filepath.Dir(path)); err != nil {
			return err
		}
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("seglog: migrate: %w", err)
	}
	return FsyncDir(filepath.Dir(path))
}

// storeComplete reports whether dir holds a store with an intact manifest —
// the marker that a staged migration finished building before a crash.
func storeComplete(dir string) bool {
	_, _, err := readManifest(filepath.Join(dir, manifestName))
	return err == nil
}
