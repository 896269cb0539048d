// Package virusdb persists every evaluated virus — its chromosome, the
// operating conditions and the measured error counts — as the paper's
// evaluation phase records each virus in a database. The record of an
// interrupted search seeds a new GA run (the framework's resume mechanism).
//
// Storage is a seglog store (see internal/seglog): one CRC-32C-framed append
// per record, so insert cost is independent of database size. Earlier
// versions kept a single JSON array and re-marshalled and re-fsynced all of
// it on every insert — O(N²) cumulative write cost over a campaign. A legacy
// JSON-array file found at the database path is migrated into a store
// directory transparently on open (the original bytes are kept at
// <path>.legacy).
//
// A bit chromosome is held packed, on disk and in memory: a frame carries
// its length and 64-bit words (base64 in the JSON frame), and the database
// keeps the words. The '0'/'1' string of Record.Bits is built only for the
// records a read returns. Frames written with the string still open, and
// Compact rewrites them packed.
package virusdb

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
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

// entry is a stored record as the database holds it: the record with its
// bit chromosome moved out of Bits/Vec into the packed vector bits (nil for
// an integer chromosome). Entries are immutable once stored, so reads may
// use them after releasing the lock.
type entry struct {
	rec  Record
	bits *bitvec.Vec
}

// newEntry validates r and packs its chromosome. The vector is copied, so
// the caller stays free to reuse its own.
func newEntry(r Record) (entry, error) {
	if err := r.Validate(); err != nil {
		return entry{}, err
	}
	e := entry{rec: r}
	if r.Ints == nil {
		v, err := r.BitVec()
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

// frame is the on-disk form of a record: the record's own fields, with a
// bit chromosome as its length N plus its words little-endian in Packed.
// Frames written before packing carry the embedded Record's Bits string
// instead; a frame carrying both is corrupt.
type frame struct {
	Record
	N      int    `json:"n,omitempty"`
	Packed []byte `json:"packed,omitempty"`
}

// encodeFrame is the payload of one stored entry.
func encodeFrame(e entry) ([]byte, error) {
	f := frame{Record: e.rec}
	if e.bits != nil {
		f.N, f.Packed = e.bits.Len(), e.bits.Bytes()
	}
	p, err := json.Marshal(f)
	if err != nil {
		return nil, fmt.Errorf("virusdb: %w", err)
	}
	return p, nil
}

// decodeFrame reads a payload in either frame form. Beyond the chromosome
// encodings it checks nothing: stores hold whatever earlier versions
// accepted, and refusing those records now would strand them.
func decodeFrame(p []byte) (entry, error) {
	var f frame
	if err := json.Unmarshal(p, &f); err != nil {
		return entry{}, err
	}
	e := entry{rec: f.Record}
	packed := f.N != 0 || f.Packed != nil
	switch {
	case packed && f.Bits != "":
		return entry{}, fmt.Errorf("frame carries both bits and packed forms")
	case packed && f.N <= 0:
		return entry{}, fmt.Errorf("packed chromosome of %d bits", f.N)
	case packed:
		v, err := bitvec.FromBytes(f.N, f.Packed)
		if err != nil {
			return entry{}, err
		}
		e.bits = v
	case f.Bits != "":
		v, err := bitvec.Parse(f.Bits)
		if err != nil {
			return entry{}, err
		}
		e.bits = v
	}
	e.rec.Bits = ""
	return e, nil
}

// DB is a seglog-backed virus database. It is safe for concurrent use:
// campaign jobs evaluating in parallel share one database, and every append
// is fsynced before it returns, so a crash never loses an acknowledged
// record and never poisons the resume mechanism with a half-written one.
type DB struct {
	path string

	mu      sync.Mutex
	entries []entry
	// names maps each experiment name to the one copy every entry of that
	// experiment shares: a campaign stores thousands of records under a
	// handful of names.
	names map[string]string
	log   *seglog.Store
}

// add stores entries in memory; the caller holds mu or owns db.
func (db *DB) add(entries ...entry) {
	for _, e := range entries {
		name, ok := db.names[e.rec.Experiment]
		if !ok {
			name = e.rec.Experiment
			db.names[name] = name
		}
		e.rec.Experiment = name
		db.entries = append(db.entries, e)
	}
}

// storeOptions is the append discipline both open paths share: full
// durability (every Append call fsyncs once) with default segment rotation.
var storeOptions = seglog.Options{SyncEvery: 1}

// Open loads the database at path, creating an empty one if nothing exists
// there. A legacy JSON-array file is migrated to the segmented store in
// place; one that does not parse — e.g. truncated by a crash of a writer
// without atomic saves — is an error, and OpenSalvage recovers the readable
// prefix instead. (A torn tail on the store's own active segment is not
// damage: it is the unacknowledged in-flight record of a crashed writer,
// and is truncated silently.)
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
	legacyDropped := 0
	convert := func(data []byte) ([][]byte, error) {
		recs, dropped, err := parseLegacy(path, data, salvage)
		if err != nil {
			return nil, err
		}
		legacyDropped = dropped
		payloads := make([][]byte, 0, len(recs))
		for _, r := range recs {
			// Legacy frames, as the array held them: opening decodes them
			// like any other, and Compact rewrites them packed.
			p, err := json.Marshal(r)
			if err != nil {
				return nil, fmt.Errorf("virusdb: %w", err)
			}
			payloads = append(payloads, p)
		}
		return payloads, nil
	}
	if err := seglog.Migrate(path, storeOptions, convert); err != nil {
		return nil, 0, err
	}
	opts := storeOptions
	opts.Salvage = salvage
	st, res, err := seglog.Open(path, opts)
	if err != nil {
		return nil, 0, fmt.Errorf("virusdb: %w", err)
	}
	db := &DB{path: path, log: st, entries: make([]entry, 0, len(res.Payloads)),
		names: map[string]string{}}
	dropped := legacyDropped + res.Stats.DroppedFrames
	for _, p := range res.Payloads {
		e, err := decodeFrame(p)
		if err != nil {
			if !salvage {
				st.Close()
				return nil, 0, fmt.Errorf("virusdb: corrupt record in %s: %w", path, err)
			}
			dropped++
			continue
		}
		db.add(e)
	}
	return db, dropped, nil
}

// parseLegacy decodes a legacy JSON-array database. In salvage mode it keeps
// the valid prefix and reports how many visible records were lost; in strict
// mode any damage is an error.
func parseLegacy(path string, data []byte, salvage bool) ([]Record, int, error) {
	if len(bytes.TrimSpace(data)) == 0 {
		return nil, 0, nil
	}
	var recs []Record
	if err := json.Unmarshal(data, &recs); err == nil {
		return recs, 0, nil
	} else if !salvage {
		return nil, 0, fmt.Errorf("virusdb: corrupt database %s: %w", path, err)
	}
	recs, ok := salvageRecords(data)
	if !ok {
		return nil, 0, fmt.Errorf("virusdb: corrupt database %s: not a JSON array", path)
	}
	dropped := countLegacyRecords(data) - len(recs)
	if dropped < 0 {
		dropped = 0
	}
	return recs, dropped, nil
}

// salvageRecords decodes complete records from the front of a (possibly
// truncated) JSON array. The second result is false when data does not even
// start with an array.
func salvageRecords(data []byte) ([]Record, bool) {
	dec := json.NewDecoder(bytes.NewReader(data))
	tok, err := dec.Token()
	if err != nil || tok != json.Delim('[') {
		return nil, false
	}
	var out []Record
	for dec.More() {
		var r Record
		if err := dec.Decode(&r); err != nil {
			break
		}
		if r.Validate() != nil {
			break
		}
		out = append(out, r)
	}
	return out, true
}

// countLegacyRecords counts the records visible in a (possibly truncated)
// legacy array by tokenizing it: every element that decodes is one record,
// plus one for a partial element chopped by the truncation. Substring
// counting (the old estimate) over-counted whenever an experiment *name* was
// itself the string "experiment", because its serialized value then
// contained the `"experiment"` key bytes a second time.
func countLegacyRecords(data []byte) int {
	dec := json.NewDecoder(bytes.NewReader(data))
	tok, err := dec.Token()
	if err != nil || tok != json.Delim('[') {
		return 0
	}
	n := 0
	for dec.More() {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			return n + 1 // a partial trailing record is visible in the bytes
		}
		n++
	}
	return n
}

// Path returns the database location.
func (db *DB) Path() string { return db.path }

// Len returns the number of stored records.
func (db *DB) Len() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.entries)
}

// Append stores records durably: each is framed, CRC'd and appended to the
// store's active segment, with one fsync covering the whole call — O(1) in
// the size of the database.
func (db *DB) Append(recs ...Record) error {
	if len(recs) == 0 {
		return nil
	}
	entries := make([]entry, 0, len(recs))
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
		entries = append(entries, e)
		payloads = append(payloads, p)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	// Disk first, then memory: a failed append must not leave records that
	// exist only until the process dies.
	if err := db.log.Append(payloads...); err != nil {
		return fmt.Errorf("virusdb: %w", err)
	}
	db.add(entries...)
	return nil
}

// Compact rewrites the store into a single fresh segment — reclaiming the
// space of salvage-dropped frames, collapsing accumulated segments and
// rewriting legacy bit-string frames packed — with an atomic manifest swap,
// so a crash leaves either the old store or the new one, never a mix.
func (db *DB) Compact() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	payloads := make([][]byte, 0, len(db.entries))
	for _, e := range db.entries {
		p, err := encodeFrame(e)
		if err != nil {
			return err
		}
		payloads = append(payloads, p)
	}
	if err := db.log.Compact(payloads); err != nil {
		return fmt.Errorf("virusdb: %w", err)
	}
	return nil
}

// Close syncs and releases the underlying store handle. The DB must not be
// used afterwards.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.log.Close()
}

// Query returns one page of an experiment's records, strongest first: the
// records with Fitness >= minFitness, skipping the first offset and keeping
// at most limit (every one when limit <= 0). Ties keep append order, so
// identical queries page identically; an empty page is an empty slice,
// never nil. The page is chosen over indices, and only its records get
// their bit strings built — outside the lock appends wait on.
func (db *DB) Query(experiment string, minFitness float64, offset,
	limit int) []Record {
	db.mu.Lock()
	var idx []int
	for i := range db.entries {
		r := &db.entries[i].rec
		if r.Experiment == experiment && r.Fitness >= minFitness {
			idx = append(idx, i)
		}
	}
	slices.SortStableFunc(idx, func(a, b int) int {
		return cmp.Compare(db.entries[b].rec.Fitness, db.entries[a].rec.Fitness)
	})
	idx = idx[min(max(offset, 0), len(idx)):]
	if limit > 0 && limit < len(idx) {
		idx = idx[:limit]
	}
	page := make([]entry, len(idx))
	for i, j := range idx {
		page[i] = db.entries[j]
	}
	db.mu.Unlock()

	out := make([]Record, len(page))
	for i, e := range page {
		out[i] = e.record()
	}
	return out
}

// Count returns how many records an experiment holds, without building
// any of them.
func (db *DB) Count(experiment string) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	n := 0
	for i := range db.entries {
		if db.entries[i].rec.Experiment == experiment {
			n++
		}
	}
	return n
}

// Records returns the stored records for one experiment, strongest first.
// It builds the bit string of every one of them: prefer Query, TopN or
// Count where a page, the best records or a total will do.
func (db *DB) Records(experiment string) []Record {
	return db.Query(experiment, math.Inf(-1), 0, 0)
}

// Experiments lists the distinct experiment names, sorted.
func (db *DB) Experiments() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	names := make([]string, 0, len(db.names))
	for n := range db.names {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Best returns the strongest record of an experiment, if any.
func (db *DB) Best(experiment string) (Record, bool) {
	recs := db.TopN(experiment, 1)
	if len(recs) == 0 {
		return Record{}, false
	}
	return recs[0], true
}

// TopN returns up to n strongest records of an experiment — the seed
// population for resuming an interrupted search.
func (db *DB) TopN(experiment string, n int) []Record {
	if n <= 0 {
		return nil
	}
	return db.Query(experiment, math.Inf(-1), 0, n)
}
