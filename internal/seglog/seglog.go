// Package seglog is a segmented append-only record store with the
// repository's checkpoint discipline applied per record instead of per file.
// virusdb and the scheduler journal were the last whole-file-rewrite
// components: every insert re-marshalled and re-fsynced the entire document,
// so cumulative write cost grew O(N²) over a long campaign. This store makes
// an append O(1) — one framed write to the active segment plus an fsync —
// while keeping the same crash-safety contract: every byte that mattered was
// fsynced before it was acknowledged, and a torn tail never poisons the
// records before it.
//
// On disk a store is a directory:
//
//	MANIFEST            crc'd, atomically-replaced list of live segments
//	seg-000000001.log   versioned header line + length-prefixed frames
//	seg-000000002.log   ...
//
// Each segment starts with the text line "dstress-seglog v1\n" followed by
// binary frames: a little-endian uint32 payload length, a little-endian
// uint32 CRC-32C of the payload, then the payload bytes. Payloads are
// opaque to the store; payload.go defines the header-plus-tail layout the
// records that carry chromosome words share. The manifest is the
// authority on which segments exist and in what order; segment files it does
// not list are debris from a crashed rotation or compaction and are deleted
// on open. The manifest itself is one CRC'd line rewritten atomically (temp
// file, fsync, rename, directory fsync) — it is tiny and changes only on
// rotation and compaction, never on append.
//
// Durability contract: Append returns after its frames are written and, when
// the sync policy fires (always, with SyncEvery <= 1), fsynced. A record is
// guaranteed to survive a crash only once a sync covering it has returned;
// with batching (SyncEvery > 1) the unsynced suffix is explicitly allowed to
// vanish, and Open truncates such a torn tail off the final segment without
// treating it as damage. Damage anywhere else — a bad frame in a non-final
// segment, which rotation fully syncs before retiring — is real corruption:
// Open fails loudly unless Salvage is set, in which case replay stops at the
// damage (trusting frames beyond it could resurrect state the writer never
// acknowledged), the dropped remainder is counted, and the surviving records
// are compacted into a fresh segment so the store is clean again.
package seglog

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
)

// Format constants. Versions are bumped on any incompatible change; Open
// refuses versions it does not understand rather than guessing.
const (
	SegMagic      = "dstress-seglog"
	ManifestMagic = "dstress-seglog-manifest"
	Version       = 1

	manifestName = "MANIFEST"
	segPrefix    = "seg-"
	segSuffix    = ".log"

	// frameHeaderLen is the fixed per-frame overhead: uint32 length plus
	// uint32 CRC-32C, both little-endian.
	frameHeaderLen = 8

	// maxFrame bounds a single payload; a larger length field is corruption,
	// not a big record.
	maxFrame = 1 << 30
)

// Defaults applied by Open when the corresponding Options field is zero.
const (
	DefaultRotateBytes = 4 << 20
)

// Sentinel errors, matchable with errors.Is.
var (
	// ErrBadSegment marks a segment file with a foreign or damaged header.
	ErrBadSegment = errors.New("seglog: bad segment header")
	// ErrBadManifest marks an unreadable or corrupt manifest.
	ErrBadManifest = errors.New("seglog: bad manifest")
	// ErrVersion marks a store written by an incompatible format version.
	ErrVersion = errors.New("seglog: unsupported version")
	// ErrCorrupt marks damage before the final segment's tail — data that
	// was acknowledged as durable and is now unreadable.
	ErrCorrupt = errors.New("seglog: corrupt store")
	// ErrNotDir marks a store path that holds something other than a
	// directory, such as a file in a layout that predates the store.
	ErrNotDir = errors.New("seglog: not a store directory")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Options configures a store.
type Options struct {
	// SyncEvery is how many appended frames may accumulate before an fsync.
	// <= 1 means every Append call syncs before returning (one fsync per
	// call, covering every frame in the call's batch) — full durability,
	// the default. Larger values trade the tail for throughput.
	SyncEvery int

	// RotateBytes rotates the active segment once it grows past this size
	// (checked after a sync). 0 means DefaultRotateBytes.
	RotateBytes int64

	// Salvage tolerates corruption before the final segment's tail: replay
	// stops at the damage and Stats.DroppedFrames counts what was lost,
	// instead of Open failing with ErrCorrupt. When that happens the store
	// is rebuilt before Open returns — the salvaged payloads are compacted
	// into one fresh segment and the damaged segments deleted — so appends
	// never land in a segment replay would skip. A torn tail on the final
	// segment is truncated in both modes — it is the expected artifact of a
	// crash, not damage.
	Salvage bool
}

// Stats reports what Open found.
type Stats struct {
	// Segments is the number of live segments listed in the manifest.
	Segments int
	// Frames is the number of replayable records.
	Frames int
	// DroppedFrames counts records lost to mid-store corruption (Salvage
	// mode only): the unparseable region itself counts as one, plus every
	// frame in segments after the damaged one.
	DroppedFrames int
	// TornBytes is the length of the unsynced tail truncated off the final
	// segment — normal after a crash, zero after a clean shutdown.
	TornBytes int64
}

// Loc locates one frame: the number of the segment holding it, the offset
// of the frame's header there, and the payload's length and CRC-32C as they
// were written. Open, Append and Compact hand them out, and ReadFrame reads
// a frame back through one. A Loc stays valid until the next Compact, which
// retires every earlier one and returns the new ones.
type Loc struct {
	Seg uint64
	Off int64
	Len uint32
	CRC uint32
}

// Store is an open segmented log. It is safe for concurrent use.
type Store struct {
	dir  string
	opts Options

	mu         sync.Mutex
	segs       []string // manifest order; last is active
	next       uint64   // next segment number
	active     *os.File
	activeSize int64
	pending    int    // frames written since the last fsync
	wbuf       []byte // AppendPayloads' write buffer, kept between calls
	closed     bool
	// poisoned is set when a failed write left bytes in the active segment
	// that could not be cut back off; further appends would land beyond the
	// junk and be silently discarded by replay, so they are refused instead.
	poisoned bool
}

// OpenResult carries the replayable payloads, their locators and open-time
// stats. Payloads share backing arrays with per-segment read buffers;
// callers decode them into their own structures and drop the slice. Locs[i]
// locates Payloads[i] in the store as Open leaves it.
type OpenResult struct {
	Payloads [][]byte
	Locs     []Loc
	Stats    Stats
}

// Open opens (or creates) the store directory at dir and replays it.
func Open(dir string, opts Options) (*Store, *OpenResult, error) {
	if dir == "" {
		return nil, nil, errors.New("seglog: empty path")
	}
	if opts.RotateBytes <= 0 {
		opts.RotateBytes = DefaultRotateBytes
	}
	if fi, err := os.Stat(dir); err == nil && !fi.IsDir() {
		return nil, nil, fmt.Errorf("%w: %s exists and is not a directory", ErrNotDir, dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("seglog: %w", err)
	}
	st := &Store{dir: dir, opts: opts}
	res := &OpenResult{}
	segs, next, err := readManifest(filepath.Join(dir, manifestName))
	switch {
	case err == nil:
		st.segs, st.next = segs, next
	case errors.Is(err, os.ErrNotExist):
		if err := st.initFresh(); err != nil {
			return nil, nil, err
		}
	default:
		return nil, nil, err
	}
	st.removeDebris()
	stopped, err := st.replay(res)
	if err != nil {
		return nil, nil, err
	}
	if stopped {
		// Salvage stopped replay inside a damaged segment. Every surviving
		// segment either holds the damage or sits beyond it where replay
		// will never look again, so appending into any of them would write
		// records that vanish on the next open. Rewrite the salvaged
		// payloads into one fresh segment — the atomic manifest swap retires
		// the damage and leaves the writer positioned in a clean segment.
		if res.Locs, err = st.compactLocked(res.Payloads); err != nil {
			return nil, nil, err
		}
		res.Stats.Segments = len(st.segs)
		return st, res, nil
	}
	res.Stats.Segments = len(st.segs)
	// Position the writer at the end of the valid data in the active
	// segment, physically truncating any torn tail so new frames append
	// after the last acknowledged one. O_APPEND keeps every write at the
	// (possibly truncated) end of file without offset bookkeeping.
	activePath := filepath.Join(dir, st.segs[len(st.segs)-1])
	f, err := os.OpenFile(activePath, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("seglog: %w", err)
	}
	if res.Stats.TornBytes > 0 {
		if err := f.Truncate(st.activeSize); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("seglog: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("seglog: %w", err)
		}
	}
	st.active = f
	return st, res, nil
}

// initFresh creates the first segment and manifest of a new store. A
// directory holding segment frames but no manifest is not fresh — it is a
// store whose manifest was lost, and overwriting it would destroy data.
func (s *Store) initFresh() error {
	names, _ := filepath.Glob(filepath.Join(s.dir, segPrefix+"*"+segSuffix))
	for _, n := range names {
		if segmentHasFrames(n) {
			return fmt.Errorf("%w: %s: segments without a manifest", ErrBadManifest, s.dir)
		}
	}
	// Any frameless leftovers are debris from a crashed init; recreate.
	for _, n := range names {
		os.Remove(n)
	}
	s.next = 1
	name, err := s.createSegment()
	if err != nil {
		return err
	}
	s.segs = []string{name}
	if err := s.writeManifest(); err != nil {
		return err
	}
	return FsyncDir(s.dir)
}

// segName is the file name of segment number n.
func segName(n uint64) string { return fmt.Sprintf("%s%09d%s", segPrefix, n, segSuffix) }

// segNumber parses a segment file name back to its number.
func segNumber(name string) (uint64, bool) {
	digits, okPrefix := strings.CutPrefix(name, segPrefix)
	digits, okSuffix := strings.CutSuffix(digits, segSuffix)
	if !okPrefix || !okSuffix {
		return 0, false
	}
	n, err := strconv.ParseUint(digits, 10, 64)
	return n, err == nil
}

// segHeaderLen is the length of the header line every segment starts with.
var segHeaderLen = int64(len(fmt.Sprintf("%s v%d\n", SegMagic, Version)))

// createSegment writes a new empty segment (header only), fsyncs it and the
// directory, and bumps the segment counter. The manifest is the caller's job.
func (s *Store) createSegment() (string, error) {
	name := segName(s.next)
	f, err := os.OpenFile(filepath.Join(s.dir, name),
		os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return "", fmt.Errorf("seglog: %w", err)
	}
	if _, err := fmt.Fprintf(f, "%s v%d\n", SegMagic, Version); err != nil {
		f.Close()
		return "", fmt.Errorf("seglog: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return "", fmt.Errorf("seglog: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("seglog: %w", err)
	}
	if err := FsyncDir(s.dir); err != nil {
		return "", err
	}
	s.next++
	return name, nil
}

// removeDebris deletes segment and temp files the manifest does not list —
// leftovers of a rotation, compaction or WriteFileAtomic that crashed after
// creating files but before publishing them.
func (s *Store) removeDebris() {
	live := make(map[string]bool, len(s.segs))
	for _, n := range s.segs {
		live[n] = true
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		n := e.Name()
		switch {
		case n == manifestName || live[n]:
		case strings.HasPrefix(n, segPrefix) && strings.HasSuffix(n, segSuffix),
			isTempFile(n):
			os.Remove(filepath.Join(s.dir, n))
		}
	}
}

// replay parses every live segment in manifest order, filling res with the
// payloads and stats and leaving s.activeSize at the end of the valid data
// in the final segment. The stopped result is true when salvage halted at
// mid-store damage: the segments from the damaged one onward were not fully
// replayed, so the caller must not append into any of them — see Open.
func (s *Store) replay(res *OpenResult) (stopped bool, err error) {
	for i, name := range s.segs {
		final := i == len(s.segs)-1
		path := filepath.Join(s.dir, name)
		payloads, locs, validEnd, rest, err := parseSegment(path)
		if err != nil {
			return false, err
		}
		res.Locs = append(res.Locs, locs...)
		if final {
			s.activeSize = validEnd
			res.Stats.TornBytes = int64(len(rest))
			res.Payloads = append(res.Payloads, payloads...)
			res.Stats.Frames += len(payloads)
			continue
		}
		if len(rest) > 0 {
			// Rotation syncs a segment in full before retiring it, so a bad
			// frame here is damage to acknowledged data, not a torn tail.
			if !s.opts.Salvage {
				return false, fmt.Errorf("%w: %s: bad frame at offset %d",
					ErrCorrupt, path, validEnd)
			}
			res.Payloads = append(res.Payloads, payloads...)
			res.Stats.Frames += len(payloads)
			res.Stats.DroppedFrames++ // the unparseable region itself
			// Frames beyond the damage are out of known order; count, drop.
			for _, later := range s.segs[i+1:] {
				lp, _, _, _, err := parseSegment(filepath.Join(s.dir, later))
				if err == nil {
					res.Stats.DroppedFrames += len(lp)
				}
			}
			return true, nil
		}
		res.Payloads = append(res.Payloads, payloads...)
		res.Stats.Frames += len(payloads)
	}
	return false, nil
}

// parseSegment reads one segment, returning its intact payloads and their
// locators, the offset where valid data ends, and any unparseable remainder
// past that offset. readManifest vets every live segment's name, so its
// number parses.
func parseSegment(path string) (payloads [][]byte, locs []Loc, validEnd int64, rest []byte, err error) {
	seg, _ := segNumber(filepath.Base(path))
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, 0, nil, fmt.Errorf("seglog: %w", err)
	}
	nl := strings.IndexByte(string(data[:min(len(data), 64)]), '\n')
	if nl < 0 {
		return nil, nil, 0, nil, fmt.Errorf("%w: %s", ErrBadSegment, path)
	}
	if err := parseSegHeader(string(data[:nl]), path); err != nil {
		return nil, nil, 0, nil, err
	}
	off := int64(nl + 1)
	for {
		remain := data[off:]
		if len(remain) == 0 {
			return payloads, locs, off, nil, nil
		}
		if len(remain) < frameHeaderLen {
			return payloads, locs, off, remain, nil
		}
		length := binary.LittleEndian.Uint32(remain[0:4])
		want := binary.LittleEndian.Uint32(remain[4:8])
		if length == 0 || length > maxFrame ||
			int64(len(remain)) < frameHeaderLen+int64(length) {
			return payloads, locs, off, remain, nil
		}
		payload := remain[frameHeaderLen : frameHeaderLen+length]
		if crc32.Checksum(payload, crcTable) != want {
			return payloads, locs, off, remain, nil
		}
		payloads = append(payloads, payload)
		locs = append(locs, Loc{Seg: seg, Off: off, Len: length, CRC: want})
		off += frameHeaderLen + int64(length)
	}
}

func parseSegHeader(line, path string) error {
	magic, ver, ok := strings.Cut(strings.TrimSpace(line), " ")
	if !ok || magic != SegMagic || !strings.HasPrefix(ver, "v") {
		return fmt.Errorf("%w: %s", ErrBadSegment, path)
	}
	var n int
	if _, err := fmt.Sscanf(ver, "v%d", &n); err != nil {
		return fmt.Errorf("%w: %s", ErrBadSegment, path)
	}
	if n != Version {
		return fmt.Errorf("%w: %s: v%d (this build reads v%d)",
			ErrVersion, path, n, Version)
	}
	return nil
}

// frameHeader returns p's frame header, its length and CRC-32C
// little-endian, and the CRC.
func frameHeader(p []byte) (hdr [frameHeaderLen]byte, crc uint32) {
	crc = crc32.Checksum(p, crcTable)
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(p)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
	return hdr, crc
}

// Append frames and writes the payloads to the active segment, returning
// their locators. It returns once they are durable under the sync policy:
// with SyncEvery <= 1 (the default) every call fsyncs once, covering its
// whole batch.
func (s *Store) Append(payloads ...[]byte) ([]Loc, error) {
	ps := make([]Payload, len(payloads))
	for i, p := range payloads {
		ps[i] = Payload{Header: p}
	}
	return s.AppendPayloads(ps...)
}

// directWrite is the size from which a payload's bulk — its tail, or the
// whole of a tail-less payload — is written straight from the caller's
// buffer. Smaller frames are gathered in the store's write buffer, so a
// batch of small records still costs one write.
const directWrite = 8 << 10

// maxWriteBuf bounds the write buffer a store keeps between appends.
const maxWriteBuf = 256 << 10

// AppendPayloads is Append for payloads given in pieces: each frame holds
// p.Bytes(), but no payload is assembled in memory. Frame headers, tail
// prefixes and small payloads go through the store's reused write buffer;
// a large tail is written from the caller's buffer as it is.
func (s *Store) AppendPayloads(ps ...Payload) ([]Loc, error) {
	if len(ps) == 0 {
		return nil, nil
	}
	for _, p := range ps {
		if err := p.check(); err != nil {
			return nil, err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("seglog: store closed")
	}
	if s.poisoned {
		return nil, errors.New("seglog: active segment poisoned by an earlier failed write; reopen to recover")
	}
	seg, _ := segNumber(s.segs[len(s.segs)-1])
	locs := make([]Loc, len(ps))
	buf := s.wbuf[:0]
	var size int64 // bytes of this call's frames so far
	var werr error
	write := func(b []byte) {
		if werr == nil && len(b) > 0 {
			_, werr = s.active.Write(b)
		}
	}
	for i, p := range ps {
		start := len(buf)
		buf = append(buf, make([]byte, frameHeaderLen)...)
		bulk := p.Header
		if len(p.Tail) > 0 {
			buf = AppendHeader(buf, p.Header)
			bulk = p.Tail
		}
		crc := crc32.Update(crc32.Checksum(buf[start+frameHeaderLen:], crcTable), crcTable, bulk)
		length := uint32(p.Len())
		binary.LittleEndian.PutUint32(buf[start:], length)
		binary.LittleEndian.PutUint32(buf[start+4:], crc)
		locs[i] = Loc{Seg: seg, Off: s.activeSize + size, Len: length, CRC: crc}
		size += frameHeaderLen + int64(length)
		if len(bulk) < directWrite {
			buf = append(buf, bulk...)
			continue
		}
		write(buf)
		write(bulk)
		buf = buf[:0]
	}
	write(buf)
	if cap(buf) <= maxWriteBuf {
		s.wbuf = buf[:0]
	}
	if werr != nil {
		// A partial write leaves junk after the last intact frame; if a
		// later append then succeeded, replay would stop at the junk and
		// silently discard the acknowledged frames beyond it as a torn
		// tail. Cut the file back to the frame boundary (writes append at
		// end-of-file, so the next attempt lands cleanly); if even that
		// fails, refuse further appends on this handle.
		if terr := s.active.Truncate(s.activeSize); terr != nil {
			s.poisoned = true
		}
		return nil, fmt.Errorf("seglog: %w", werr)
	}
	s.activeSize += size
	s.pending += len(ps)
	if s.opts.SyncEvery <= 1 || s.pending >= s.opts.SyncEvery ||
		s.activeSize >= s.opts.RotateBytes {
		if err := s.syncLocked(); err != nil {
			return nil, err
		}
	}
	if s.activeSize >= s.opts.RotateBytes {
		if err := s.rotateLocked(); err != nil {
			return nil, err
		}
	}
	return locs, nil
}

// ReadFrame reads back the payload loc locates and checks it against the
// length and CRC-32C loc recorded when the frame was written or replayed: a
// frame damaged on disk since then is an ErrCorrupt error, never different
// bytes. Each call opens the segment and closes it again, so reads hold no
// file handles between calls. Reads run outside the store's lock,
// concurrently with Append; a Compact racing a read may make it fail, and
// retires loc either way.
func (s *Store) ReadFrame(loc Loc) ([]byte, error) {
	f, err := s.openSegment(loc.Seg)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, frameHeaderLen+int(loc.Len))
	if _, err := f.ReadAt(buf, loc.Off); err != nil {
		return nil, fmt.Errorf("seglog: %s: frame at offset %d: %w", segName(loc.Seg), loc.Off, err)
	}
	payload := buf[frameHeaderLen:]
	if binary.LittleEndian.Uint32(buf[0:4]) != loc.Len ||
		binary.LittleEndian.Uint32(buf[4:8]) != loc.CRC ||
		crc32.Checksum(payload, crcTable) != loc.CRC {
		return nil, fmt.Errorf("%w: %s: frame at offset %d changed on disk",
			ErrCorrupt, segName(loc.Seg), loc.Off)
	}
	return payload, nil
}

// openSegment opens a live segment read-only. The membership check and the
// open share the lock, so a segment Compact has retired is never opened.
func (s *Store) openSegment(seg uint64) (*os.File, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("seglog: store closed")
	}
	name := segName(seg)
	if !slices.Contains(s.segs, name) {
		return nil, fmt.Errorf("seglog: %s is not a live segment", name)
	}
	f, err := os.Open(filepath.Join(s.dir, name))
	if err != nil {
		return nil, fmt.Errorf("seglog: %w", err)
	}
	return f, nil
}

// Sync forces pending frames to stable storage regardless of SyncEvery.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	return s.syncLocked()
}

func (s *Store) syncLocked() error {
	if err := s.active.Sync(); err != nil {
		return fmt.Errorf("seglog: %w", err)
	}
	s.pending = 0
	return nil
}

// rotateLocked retires the active segment (already synced) and switches
// appends to a fresh one. The new segment is durable on disk before the
// manifest names it, so a crash at any point leaves either the old manifest
// (the new file is debris, deleted next open) or the new one.
func (s *Store) rotateLocked() error {
	name, err := s.createSegment()
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(s.dir, name), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("seglog: %w", err)
	}
	s.segs = append(s.segs, name)
	if err := s.writeManifest(); err != nil {
		f.Close()
		s.segs = s.segs[:len(s.segs)-1]
		s.next--
		return err
	}
	s.active.Close()
	s.active = f
	s.activeSize = segHeaderLen
	return nil
}

// Compact rewrites the store to exactly the given payloads, returning their
// locators: they are written into one fresh segment, the manifest
// atomically swaps to it, and the old segments are deleted. The caller
// decides what is live; a crash at any point leaves either the complete old
// store or the complete new one.
func (s *Store) Compact(payloads [][]byte) ([]Loc, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("seglog: store closed")
	}
	if err := s.syncLocked(); err != nil {
		return nil, err
	}
	return s.compactLocked(payloads)
}

// compactLocked does the compaction work with s.mu held (or, during Open,
// before the store is published). It tolerates a nil active handle — Open
// uses it to rebuild a salvaged store before any writer exists.
func (s *Store) compactLocked(payloads [][]byte) ([]Loc, error) {
	seg := s.next
	name, err := s.createSegment()
	if err != nil {
		return nil, err
	}
	path := filepath.Join(s.dir, name)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("seglog: %w", err)
	}
	size := segHeaderLen
	locs := make([]Loc, len(payloads))
	for i, p := range payloads {
		if len(p) == 0 || len(p) > maxFrame {
			f.Close()
			os.Remove(path)
			return nil, fmt.Errorf("seglog: bad payload length %d", len(p))
		}
		hdr, crc := frameHeader(p)
		locs[i] = Loc{Seg: seg, Off: size, Len: uint32(len(p)), CRC: crc}
		if _, err := f.Write(hdr[:]); err == nil {
			_, err = f.Write(p)
		}
		if err != nil {
			f.Close()
			os.Remove(path)
			return nil, fmt.Errorf("seglog: %w", err)
		}
		size += frameHeaderLen + int64(len(p))
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("seglog: %w", err)
	}
	old := s.segs
	s.segs = []string{name}
	if err := s.writeManifest(); err != nil {
		f.Close()
		os.Remove(path)
		s.segs = old
		return nil, err
	}
	if s.active != nil {
		s.active.Close()
	}
	s.active = f
	s.activeSize = size
	s.pending = 0
	s.poisoned = false
	for _, n := range old {
		os.Remove(filepath.Join(s.dir, n))
	}
	return locs, nil
}

// writeManifest publishes the current segment list atomically.
func (s *Store) writeManifest() error {
	body, err := json.Marshal(struct {
		Next     uint64   `json:"next"`
		Segments []string `json:"segments"`
	}{Next: s.next, Segments: s.segs})
	if err != nil {
		return fmt.Errorf("seglog: %w", err)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s v%d\n", ManifestMagic, Version)
	fmt.Fprintf(&sb, "%08x %s\n", crc32.Checksum(body, crcTable), body)
	return WriteFileAtomic(s.dir, manifestName, []byte(sb.String()))
}

// WriteFileAtomic replaces the file name in dir with data: temp file,
// fsync, rename over name, directory fsync. A crash leaves the old file or
// the new one, never a mix; the temp file it may leave, "."+lower(name)+"-"
// and digits, is debris that Open deletes.
func WriteFileAtomic(dir, name string, data []byte) error {
	tmp, err := os.CreateTemp(dir, "."+strings.ToLower(name)+"-*")
	if err != nil {
		return fmt.Errorf("seglog: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("seglog: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("seglog: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("seglog: %w", err)
	}
	if err := os.Rename(tmpName, filepath.Join(dir, name)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("seglog: %w", err)
	}
	return FsyncDir(dir)
}

// isTempFile reports whether name is a temp file WriteFileAtomic creates:
// a dot, lower-case letters, a dash and the digits os.CreateTemp adds.
func isTempFile(name string) bool {
	stem, digits, ok := strings.Cut(name, "-")
	if !ok || len(stem) < 2 || stem[0] != '.' || digits == "" {
		return false
	}
	for _, c := range stem[1:] {
		if c < 'a' || c > 'z' {
			return false
		}
	}
	for _, c := range digits {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// readManifest parses MANIFEST, returning the live segment names in order
// and the next segment number.
func readManifest(path string) ([]string, uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("seglog: %w", err)
	}
	lines := strings.SplitN(string(data), "\n", 3)
	if len(lines) < 2 {
		return nil, 0, fmt.Errorf("%w: %s: truncated", ErrBadManifest, path)
	}
	magic, ver, ok := strings.Cut(strings.TrimSpace(lines[0]), " ")
	if !ok || magic != ManifestMagic || !strings.HasPrefix(ver, "v") {
		return nil, 0, fmt.Errorf("%w: %s", ErrBadManifest, path)
	}
	var n int
	if _, err := fmt.Sscanf(ver, "v%d", &n); err != nil {
		return nil, 0, fmt.Errorf("%w: %s", ErrBadManifest, path)
	}
	if n != Version {
		return nil, 0, fmt.Errorf("%w: %s: v%d (this build reads v%d)",
			ErrVersion, path, n, Version)
	}
	crcHex, body, ok := strings.Cut(lines[1], " ")
	if !ok {
		return nil, 0, fmt.Errorf("%w: %s", ErrBadManifest, path)
	}
	var want uint32
	if _, err := fmt.Sscanf(crcHex, "%08x", &want); err != nil {
		return nil, 0, fmt.Errorf("%w: %s", ErrBadManifest, path)
	}
	if crc32.Checksum([]byte(body), crcTable) != want {
		return nil, 0, fmt.Errorf("%w: %s: checksum mismatch", ErrBadManifest, path)
	}
	var doc struct {
		Next     uint64   `json:"next"`
		Segments []string `json:"segments"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		return nil, 0, fmt.Errorf("%w: %s: %v", ErrBadManifest, path, err)
	}
	if len(doc.Segments) == 0 || doc.Next == 0 {
		return nil, 0, fmt.Errorf("%w: %s: empty segment list", ErrBadManifest, path)
	}
	// A Loc names its segment by number, and rotation and compaction create
	// segment next with O_TRUNC: every name must be the canonical spelling
	// of its number, the numbers must rise, and next must lie beyond them,
	// or reads miss live segments and new segments overwrite them.
	var last uint64
	for i, n := range doc.Segments {
		num, ok := segNumber(n)
		if !ok || n != segName(num) {
			return nil, 0, fmt.Errorf("%w: %s: bad segment name %q",
				ErrBadManifest, path, n)
		}
		if i > 0 && num <= last {
			return nil, 0, fmt.Errorf("%w: %s: segment %q out of order",
				ErrBadManifest, path, n)
		}
		last = num
	}
	if doc.Next <= last {
		return nil, 0, fmt.Errorf("%w: %s: next segment %d is not past %d",
			ErrBadManifest, path, doc.Next, last)
	}
	return doc.Segments, doc.Next, nil
}

// segmentHasFrames reports whether the file holds at least one intact frame.
func segmentHasFrames(path string) bool {
	payloads, _, _, _, err := parseSegment(path)
	return err == nil && len(payloads) > 0
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Size returns the total on-disk size of the live segments.
func (s *Store) Size() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total int64
	for _, n := range s.segs[:len(s.segs)-1] {
		if fi, err := os.Stat(filepath.Join(s.dir, n)); err == nil {
			total += fi.Size()
		}
	}
	return total + s.activeSize
}

// Close syncs pending frames and releases the handle.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.active.Sync()
	if cerr := s.active.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("seglog: %w", err)
	}
	return nil
}

// FsyncDir fsyncs a directory, making a just-renamed entry durable: on many
// filesystems a rename survives a crash only once its parent directory's
// metadata is flushed, so "temp file, fsync, rename" alone can lose the file
// entirely. Filesystems that reject directory fsync (EINVAL/ENOTSUP) are
// treated as having nothing to flush.
func FsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("seglog: fsync dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil &&
		!errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return fmt.Errorf("seglog: fsync dir %s: %w", dir, err)
	}
	return nil
}
