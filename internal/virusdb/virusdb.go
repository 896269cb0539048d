// Package virusdb persists every evaluated virus — its chromosome, the
// operating conditions and the measured error counts — as the paper's
// evaluation phase records each virus in a database. The record of an
// interrupted search seeds a new GA run (the framework's resume mechanism).
//
// Storage is a seglog store (see internal/seglog): one CRC-32C-framed append
// per record, so insert cost is independent of database size. A file at the
// database path is a single-file database from a build before the segmented
// store; Open refuses it with an error that names the build that converts
// it.
//
// A bit chromosome is stored packed, in seglog's header-plus-tail layout:
// the record's fields are the frame's JSON header, and the chromosome's
// length and 64-bit words are its binary tail. Open and reads accept only
// this layout, the one Append writes.
//
// Chromosomes stay on disk. In memory the database keeps, per experiment,
// each record's fitness and the locator of its frame, strongest first; a
// read picks its page from that index and reads back only the page's
// frames, each checked against the CRC-32C it was written or replayed with.
//
// Close and Compact write an index snapshot, the file INDEX beside the
// segments (snapshot.go). It names the frames the index held, by locator,
// so the next Open reads their experiment and fitness with a plain scan of
// the header instead of decoding its JSON. Open still reads and CRC-checks
// every frame, and decodes in full every frame the snapshot does not name:
// a missing or stale snapshot costs time, never records.
package virusdb

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"slices"
	"sort"
	"sync"

	"dstress/internal/bitvec"
	"dstress/internal/seglog"
)

// Record is one evaluated virus.
type Record struct {
	// Experiment identifies the search this virus belongs to, e.g.
	// "data64/max-ce/55C".
	Experiment string `json:"experiment"`

	// Chromosome encoding: exactly one of Bits (as a "0101..." string),
	// Vec or Ints is set. Reads always fill Bits for a bit chromosome; Vec
	// lets a writer hand Append the packed vector without spelling it out.
	Bits string      `json:"bits,omitempty"`
	Vec  *bitvec.Vec `json:"-"`
	Ints []int       `json:"ints,omitempty"`

	Fitness    float64 `json:"fitness"`
	MeanCE     float64 `json:"mean_ce"`
	UEFrac     float64 `json:"ue_frac"`
	Generation int     `json:"generation"`

	TempC float64 `json:"temp_c"`
	TREFP float64 `json:"trefp"`
	VDD   float64 `json:"vdd"`
}

// Validate reports whether the record is storable.
func (r Record) Validate() error {
	if r.Experiment == "" {
		return fmt.Errorf("virusdb: empty experiment")
	}
	forms := 0
	for _, set := range []bool{r.Bits != "", r.Vec != nil, r.Ints != nil} {
		if set {
			forms++
		}
	}
	switch {
	case forms == 0:
		return fmt.Errorf("virusdb: record has no chromosome")
	case forms > 1:
		return fmt.Errorf("virusdb: record has two chromosomes")
	// A non-nil but empty chromosome is not one either: such a record
	// could be stored but can never seed a resumed search.
	case r.Vec != nil && r.Vec.Len() == 0, r.Ints != nil && len(r.Ints) == 0:
		return fmt.Errorf("virusdb: empty chromosome")
	}
	for _, c := range r.Bits {
		if c != '0' && c != '1' {
			return fmt.Errorf("virusdb: bad bit %q", c)
		}
	}
	return nil
}

// BitVec returns the record's bit chromosome as a vector of its own, from
// Vec or by parsing Bits.
func (r Record) BitVec() (*bitvec.Vec, error) {
	if r.Vec != nil {
		return r.Vec.Clone(), nil
	}
	return bitvec.Parse(r.Bits)
}

// entry is a record between its frame and its Record form: the record with
// its bit chromosome moved out of Bits/Vec into the packed vector bits (nil
// for an integer chromosome).
type entry struct {
	rec  Record
	bits *bitvec.Vec
}

// newEntry validates r and packs its chromosome. A Vec is shared, not
// copied: the entry lives only until Append has encoded it.
func newEntry(r Record) (entry, error) {
	if err := r.Validate(); err != nil {
		return entry{}, err
	}
	e := entry{rec: r, bits: r.Vec}
	if r.Ints == nil && r.Vec == nil {
		v, err := bitvec.Parse(r.Bits)
		if err != nil {
			return entry{}, fmt.Errorf("virusdb: %w", err)
		}
		e.bits = v
	}
	e.rec.Bits, e.rec.Vec = "", nil
	return e, nil
}

// record materializes the entry as a Record, spelling out its bit string.
func (e entry) record() Record {
	r := e.rec
	if e.bits != nil {
		r.Bits = e.bits.BitString()
	}
	return r
}

// encodeFrame is the payload of one stored entry, its frame: the record's
// own fields as JSON. A bit chromosome follows as the payload's tail — its
// length as a uvarint, then its words little-endian, copied once into the
// payload — and an integer chromosome stays in Ints, with no tail.
func encodeFrame(e entry) ([]byte, error) {
	h, err := json.Marshal(e.rec)
	if err != nil {
		return nil, fmt.Errorf("virusdb: %w", err)
	}
	if e.bits == nil {
		return h, nil
	}
	p := make([]byte, 0, len(h)+1+2*binary.MaxVarintLen64+8*e.bits.NumWords())
	p = seglog.AppendHeader(p, h)
	p = binary.AppendUvarint(p, uint64(e.bits.Len()))
	return e.bits.AppendBytes(p), nil
}

// parseFrame splits a frame and decodes its JSON; tail is the bit
// chromosome's tail, nil for an integer chromosome. A frame whose JSON
// spells a bit string, or that carries no chromosome or two, is corrupt:
// encodeFrame writes none of them.
func parseFrame(p []byte) (rec Record, tail []byte, err error) {
	pl, err := seglog.SplitPayload(p)
	if err != nil {
		return Record{}, nil, err
	}
	if err := json.Unmarshal(pl.Header, &rec); err != nil {
		return Record{}, nil, err
	}
	switch {
	case rec.Bits != "":
		return Record{}, nil, fmt.Errorf("bit string in the frame's JSON")
	case pl.Tail != nil && rec.Ints != nil:
		return Record{}, nil, fmt.Errorf("frame carries its chromosome twice")
	case pl.Tail == nil && len(rec.Ints) == 0:
		return Record{}, nil, fmt.Errorf("frame carries no chromosome")
	}
	return rec, pl.Tail, nil
}

// tailWords splits a frame tail into the chromosome's length and its
// packed words, checking in O(1) what bitvec.FromBytes would: a positive
// length, 8 bytes per word, no set bit past the length.
func tailWords(tail []byte) (n int, words []byte, err error) {
	u, k := binary.Uvarint(tail)
	words = tail[max(k, 0):]
	switch {
	case k <= 0 || u == 0 || u > 8*uint64(len(words)):
		return 0, nil, fmt.Errorf("bad chromosome length in frame tail")
	case uint64(len(words)) != (u+63)/64*8:
		return 0, nil, fmt.Errorf("%d packed bytes for %d bits", len(words), u)
	}
	n = int(u)
	if r := n % 64; r != 0 && binary.LittleEndian.Uint64(words[len(words)-8:])>>r != 0 {
		return 0, nil, fmt.Errorf("packed bits set past length %d", n)
	}
	return n, words, nil
}

// indexFrame returns the record fields of a payload, all Open needs of it:
// a tail's words are checked but not read out. It accepts exactly the
// payloads decodeFrame accepts.
func indexFrame(p []byte) (Record, error) {
	rec, tail, err := parseFrame(p)
	if err == nil && tail != nil {
		_, _, err = tailWords(tail)
	}
	return rec, err
}

// decodeFrame reads a frame back. Beyond the chromosome it checks nothing:
// a store holds whatever earlier builds accepted, and refusing those
// records now would strand them.
func decodeFrame(p []byte) (entry, error) {
	rec, tail, err := parseFrame(p)
	if err != nil || tail == nil {
		return entry{rec: rec}, err
	}
	n, words, err := tailWords(tail)
	if err != nil {
		return entry{}, err
	}
	v, err := bitvec.FromBytes(n, words)
	if err != nil {
		return entry{}, err
	}
	return entry{rec: rec, bits: v}, nil
}

// DB is a seglog-backed virus database. It is safe for concurrent use:
// campaign jobs evaluating in parallel share one database, and every append
// is fsynced before it returns, so a crash never loses an acknowledged
// record and never poisons the resume mechanism with a half-written one.
type DB struct {
	path string
	log  *seglog.Store

	// compactMu keeps Compact, which moves every frame, apart from the
	// appends and reads that use locators outside mu: they hold it shared,
	// Compact exclusively.
	compactMu sync.RWMutex

	// closed is set by Close, under compactMu held exclusively.
	closed bool

	mu sync.Mutex
	// exps indexes each experiment's records strongest first; see slot.
	exps map[string][]slot
	n    int
	// scanned counts the frames Open indexed by a header scan, as the
	// snapshot vouched for them.
	scanned int
}

// slot is what the database keeps in memory of one record: the fitness its
// pages are ordered by and where its frame is. It holds no pointer, so the
// index of a large store costs the garbage collector nothing to scan.
type slot struct {
	fitness float64
	loc     seglog.Loc
}

// byLoc orders slots as their frames lie in the store: append order, which
// Compact keeps.
func byLoc(a, b slot) int {
	if c := cmp.Compare(a.loc.Seg, b.loc.Seg); c != 0 {
		return c
	}
	return cmp.Compare(a.loc.Off, b.loc.Off)
}

// byRank is the index order: fitness descending, ties in append order.
func byRank(a, b slot) int {
	if c := cmp.Compare(b.fitness, a.fitness); c != 0 {
		return c
	}
	return byLoc(a, b)
}

// insert merges new slots of one experiment into its index; the caller
// holds mu or owns db. The merge runs back to front in place, so an append
// moves only the index entries it ranks above.
func (db *DB) insert(exp string, add []slot) {
	slices.SortFunc(add, byRank)
	ix := db.exps[exp]
	i, j := len(ix)-1, len(add)-1
	ix = slices.Grow(ix, len(add))[:len(ix)+len(add)]
	for w := len(ix) - 1; j >= 0; w-- {
		if i >= 0 && byRank(add[j], ix[i]) < 0 {
			ix[w] = ix[i]
			i--
		} else {
			ix[w] = add[j]
			j--
		}
	}
	db.exps[exp] = ix
	db.n += len(add)
}

// read reads one record's frame back and builds the Record.
func (db *DB) read(loc seglog.Loc) (Record, error) {
	p, err := db.log.ReadFrame(loc)
	if err != nil {
		return Record{}, fmt.Errorf("virusdb: %w", err)
	}
	e, err := decodeFrame(p)
	if err != nil {
		return Record{}, fmt.Errorf("virusdb: %s: %w", db.path, err)
	}
	return e.record(), nil
}

// storeOptions is the append discipline both open paths share: full
// durability (every Append call fsyncs once) with default segment rotation.
var storeOptions = seglog.Options{SyncEvery: 1}

// Open loads the database at path, creating an empty one if nothing exists
// there. A damaged store or a corrupt frame is an error, and OpenSalvage
// keeps the intact records instead. (A torn tail on the store's own active
// segment is not damage: it is the unacknowledged in-flight record of a
// crashed writer, and is truncated silently.) A file at path is refused:
// it is a single-file database from a build before the segmented store.
//
// Every frame is read and CRC-checked. A frame the index snapshot names,
// at the locator the snapshot recorded, was decoded in full by an earlier
// Open or written by Append, so Open takes its experiment and fitness from
// a scan of its header; every other frame is decoded and validated in
// full. Open never writes the snapshot.
func Open(path string) (*DB, error) {
	db, _, err := open(path, false)
	return db, err
}

// OpenSalvage is Open for a possibly damaged database: it keeps every intact
// record up to the damage and drops the rest, returning the salvaged
// database and how many records were dropped (0 for an intact one).
func OpenSalvage(path string) (*DB, int, error) {
	return open(path, true)
}

func open(path string, salvage bool) (*DB, int, error) {
	if path == "" {
		return nil, 0, fmt.Errorf("virusdb: empty path")
	}
	opts := storeOptions
	opts.Salvage = salvage
	st, res, err := seglog.Open(path, opts)
	if errors.Is(err, seglog.ErrNotDir) {
		return nil, 0, fmt.Errorf("virusdb: %w; a single-file database from an earlier build: "+
			"convert it with \"virusdb -db %s -compact\" built from commit 67701f1", err, path)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("virusdb: %w", err)
	}
	db := &DB{path: path, log: st, exps: map[string][]slot{}}
	dropped := res.Stats.DroppedFrames
	// Slots gather per experiment; a lookup by a header's bytes allocates
	// nothing, so only a new experiment's name is copied out.
	byExp := map[string]*[]slot{}
	add := func(exp string, sl slot) {
		sls := byExp[exp]
		if sls == nil {
			sls = new([]slot)
			byExp[exp] = sls
		}
		*sls = append(*sls, sl)
	}
	// Merge-walk the frames against the snapshot's blocks, both in store
	// order: a block whose locators all match vouches for its frames.
	blocks := readSnapshot(path)
	next, vouched := 0, 0
	for i, p := range res.Payloads {
		loc := res.Locs[i]
		if vouched == 0 {
			for next < len(blocks) && blocks[next].before(loc) {
				next++
			}
			if next < len(blocks) && blocks[next].covers(res.Locs[i:]) {
				vouched = int(blocks[next].frames)
				next++
			}
		}
		if vouched > 0 {
			vouched--
			if exp, fit, ok := headerFields(headerOf(p)); ok {
				if sls := byExp[string(exp)]; sls != nil {
					*sls = append(*sls, slot{fitness: fit, loc: loc})
				} else {
					add(string(exp), slot{fitness: fit, loc: loc})
				}
				db.scanned++
				continue
			}
		}
		rec, err := indexFrame(p)
		if err != nil {
			if !salvage {
				st.Close()
				return nil, 0, fmt.Errorf("virusdb: corrupt record in %s: %w", path, err)
			}
			dropped++
			continue
		}
		add(rec.Experiment, slot{fitness: rec.Fitness, loc: loc})
	}
	for exp, sls := range byExp {
		db.insert(exp, *sls)
	}
	return db, dropped, nil
}

// headerOf is the JSON header of a payload, nil if it splits badly.
func headerOf(p []byte) []byte {
	pl, err := seglog.SplitPayload(p)
	if err != nil {
		return nil
	}
	return pl.Header
}

// Path returns the database location.
func (db *DB) Path() string { return db.path }

// Len returns the number of stored records.
func (db *DB) Len() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.n
}

// Append stores records durably: each is framed, CRC'd and appended to the
// store's active segment, with one fsync covering the whole call — O(1) in
// the size of the database. The fsync holds no lock a read waits on.
func (db *DB) Append(recs ...Record) error {
	if len(recs) == 0 {
		return nil
	}
	payloads := make([][]byte, 0, len(recs))
	for _, r := range recs {
		e, err := newEntry(r)
		if err != nil {
			return err
		}
		p, err := encodeFrame(e)
		if err != nil {
			return err
		}
		payloads = append(payloads, p)
	}
	db.compactMu.RLock()
	defer db.compactMu.RUnlock()
	if db.closed {
		return errClosed
	}
	// Disk first, then memory: a failed append must not leave records that
	// exist only until the process dies.
	locs, err := db.log.Append(payloads...)
	if err != nil {
		return fmt.Errorf("virusdb: %w", err)
	}
	byExp := map[string][]slot{}
	for i, r := range recs {
		byExp[r.Experiment] = append(byExp[r.Experiment],
			slot{fitness: r.Fitness, loc: locs[i]})
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	for exp, add := range byExp {
		db.insert(exp, add)
	}
	return nil
}

// errClosed is what every read and write of a closed database returns.
var errClosed = errors.New("virusdb: database closed")

// storeOrder returns every slot of the index in the order of the frames in
// the store; the caller holds compactMu exclusively.
func (db *DB) storeOrder() []*slot {
	all := make([]*slot, 0, db.n)
	for _, ix := range db.exps {
		for i := range ix {
			all = append(all, &ix[i])
		}
	}
	slices.SortFunc(all, func(a, b *slot) int { return byLoc(*a, *b) })
	return all
}

// snapshot writes the index snapshot of the indexed frames; the caller holds
// compactMu exclusively.
func (db *DB) snapshot() error {
	all := db.storeOrder()
	locs := make([]seglog.Loc, len(all))
	for i, sl := range all {
		locs[i] = sl.loc
	}
	err := seglog.WriteFileAtomic(db.path, snapName, encodeIndex(snapBlocks(locs)))
	if err != nil {
		return fmt.Errorf("virusdb: index snapshot: %w", err)
	}
	return nil
}

// Compact rewrites the store into a single fresh segment — reclaiming the
// space of salvage-dropped frames and collapsing accumulated segments —
// with an atomic manifest swap, so a crash leaves either the old store or
// the new one, never a mix. It reads every indexed frame back, CRC-checked,
// and writes them unchanged in their old order, then writes the index
// snapshot of the new locators. An error after the swap says so: the store
// is compacted, and Close tries the snapshot again.
func (db *DB) Compact() error {
	db.compactMu.Lock()
	defer db.compactMu.Unlock()
	if db.closed {
		return errClosed
	}
	// With compactMu held exclusively nothing else touches the index.
	all := db.storeOrder()
	payloads := make([][]byte, len(all))
	for i, sl := range all {
		p, err := db.log.ReadFrame(sl.loc)
		if err != nil {
			return fmt.Errorf("virusdb: %w", err)
		}
		payloads[i] = p
	}
	locs, err := db.log.Compact(payloads)
	if err != nil {
		return fmt.Errorf("virusdb: %w", err)
	}
	for i, sl := range all {
		sl.loc = locs[i]
	}
	if err := db.snapshot(); err != nil {
		return fmt.Errorf("%w (the store itself is compacted)", err)
	}
	return nil
}

// Close waits for the reads and appends in flight, syncs and releases the
// store, and then writes the index snapshot. Every later call that can
// fail returns an error; a second Close returns nil. A snapshot that
// cannot be written is an error but loses nothing: the next Open decodes
// the frames it would have named.
func (db *DB) Close() error {
	db.compactMu.Lock()
	defer db.compactMu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	if err := db.log.Close(); err != nil {
		return fmt.Errorf("virusdb: %w", err)
	}
	return db.snapshot()
}

// Query returns one page of an experiment's records, strongest first: the
// records with Fitness >= minFitness, skipping the first offset and keeping
// at most limit (every one when limit <= 0). Ties keep append order, so
// identical queries page identically; an empty page is an empty slice,
// never nil. The page is cut from the experiment's index under the lock,
// and its frames are read back outside it; a frame that no longer matches
// its CRC is an error, never a different record.
func (db *DB) Query(experiment string, minFitness float64, offset,
	limit int) ([]Record, error) {
	db.compactMu.RLock()
	defer db.compactMu.RUnlock()
	if db.closed {
		return nil, errClosed
	}
	db.mu.Lock()
	ix := db.exps[experiment]
	// The records passing the filter are a prefix of the index.
	n := sort.Search(len(ix), func(i int) bool { return !(ix[i].fitness >= minFitness) })
	ix = ix[min(max(offset, 0), n):n]
	if limit > 0 && limit < len(ix) {
		ix = ix[:limit]
	}
	page := slices.Clone(ix) // appends rewrite the index in place
	db.mu.Unlock()

	out := make([]Record, len(page))
	for i, sl := range page {
		r, err := db.read(sl.loc)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// Count returns how many records an experiment holds, without reading any
// of them.
func (db *DB) Count(experiment string) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.exps[experiment])
}

// Records returns the stored records for one experiment, strongest first.
// It reads and decodes every one of them from disk (about 0.2 ms per 24 KB
// chromosome, most of it spelling out Bits), and if one cannot be read it
// logs why and returns nil: prefer
// Query, which returns the error, or TopN or Count, where a page, the best
// records or a total will do.
func (db *DB) Records(experiment string) []Record {
	recs, err := db.Query(experiment, math.Inf(-1), 0, 0)
	if err != nil {
		log.Printf("virusdb: records of %q: %v", experiment, err)
		return nil
	}
	return recs
}

// Experiments lists the distinct experiment names, sorted.
func (db *DB) Experiments() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	names := make([]string, 0, len(db.exps))
	for n := range db.exps {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Best returns the strongest record of an experiment, if any.
func (db *DB) Best(experiment string) (Record, bool, error) {
	recs, err := db.TopN(experiment, 1)
	if err != nil || len(recs) == 0 {
		return Record{}, false, err
	}
	return recs[0], true, nil
}

// TopN returns up to n strongest records of an experiment — the seed
// population for resuming an interrupted search.
func (db *DB) TopN(experiment string, n int) ([]Record, error) {
	if n <= 0 {
		return nil, nil
	}
	return db.Query(experiment, math.Inf(-1), 0, n)
}
