package farm

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"dstress/internal/seglog"
)

// JournalEntry is one durable job record: everything a restarted daemon
// needs to re-queue the job — the caller-defined spec to rebuild it and the
// latest resumable checkpoint to continue it from.
type JournalEntry struct {
	ID   int    `json:"id"`
	Name string `json:"name"`
	// Tenant and Priority preserve the admission identity and ordering of
	// the original submission: a restarted daemon re-queues recovered jobs
	// under the same tenant accounting and the same priority band, so
	// recovery cannot reshuffle who runs first. (Pre-tenancy entries
	// decode with both zero — anonymous at priority 0, as submitted.)
	Tenant   string  `json:"tenant,omitempty"`
	Priority int     `json:"priority,omitempty"`
	Workers  int     `json:"workers"`
	TimeoutS float64 `json:"timeout_s,omitempty"`
	// Spec is the opaque job description the submitter journaled; the farm
	// never interprets it.
	Spec json.RawMessage `json:"spec"`
	// Checkpoint is the job's newest resumable state, nil until the job
	// first checkpoints: the bytes the job handed Job.Checkpoint, opaque to
	// the farm. The journal writes them as the tail of an op frame (see
	// journalOp), never in the entry's JSON.
	Checkpoint json.RawMessage `json:"-"`
	// State is informational: "pending", "running", or "interrupted".
	State     string    `json:"state"`
	Submitted time.Time `json:"submitted"`
}

// journalOp is one persisted delta. The journal used to rewrite the whole
// document on every state change — O(journal size) per update, O(N²)
// cumulative; now each change appends one CRC'd frame and the live set is
// the result of replaying them.
//
// An op is a seglog payload. One that carries a checkpoint — a
// "checkpoint" op, or an "add" op whose entry has one — is written in the
// header-plus-tail layout: the op's JSON, which never holds a checkpoint, is
// the header, the checkpoint's bytes are the tail, and nothing reads them as
// JSON. Any other op is its plain JSON.
type journalOp struct {
	Op         string          `json:"op"` // "add", "state", "checkpoint", "remove"
	ID         int             `json:"id,omitempty"`
	Entry      *JournalEntry   `json:"entry,omitempty"`
	State      string          `json:"state,omitempty"`
	Checkpoint json.RawMessage `json:"-"`
}

// journalStoreOptions: full durability (each op fsynced before the mutation
// returns), modest rotation because checkpoint deltas can be large, and
// salvage replay — a torn or damaged tail yields the longest consistent
// prefix instead of refusing to start, mirroring the old checkpoint-file
// salvage.
var journalStoreOptions = seglog.Options{
	SyncEvery:   1,
	RotateBytes: 1 << 20,
	Salvage:     true,
}

// journalCompactMinOps is how many appended ops accumulate before an
// in-flight compaction is considered (and only when they dwarf the live
// set), bounding on-disk growth over a long-running daemon.
const journalCompactMinOps = 1024

// journalCompactMinBytes is the same trigger by appended bytes: one
// checkpoint op of a block-virus search is megabytes, and a thousand of
// them are gigabytes of superseded checkpoints on disk.
const journalCompactMinBytes = 64 << 20

// Journal persists a scheduler's durable jobs with the crash-safe seglog
// discipline. Entries live from submission to terminal state; whatever the
// journal holds when the process dies is exactly the set of jobs a restart
// must re-queue.
type Journal struct {
	path string

	mu        sync.Mutex
	log       *seglog.Store
	entries   map[int]*JournalEntry
	recovered []JournalEntry
	// recoveredLive is true while the previous process's entries are still
	// on disk. The first mutation of the new live set retires them — the
	// same moment the old whole-doc rewrite implicitly dropped them.
	recoveredLive     bool
	opsSinceCompact   int
	bytesSinceCompact int
}

// OpenJournal opens (or creates) the journal at path and sets aside any
// entries a previous process left behind — see Recovered. The new process
// starts with an empty live set; re-queueing recovered jobs re-journals
// them under fresh ids. The store is compacted on open so recovered entries
// are rewritten in their interrupted state as the log's canonical contents.
//
// A file at path is refused: it is a single-file journal from a build
// before the segmented store, and only such a build reads it.
func OpenJournal(path string) (*Journal, error) {
	st, res, err := seglog.Open(path, journalStoreOptions)
	if errors.Is(err, seglog.ErrNotDir) {
		return nil, fmt.Errorf("farm: journal: %w; a single-file journal from an earlier "+
			"build: drain it with dstressd built from commit 67701f1, running that build "+
			"over it until its jobs finish", err)
	}
	if err != nil {
		return nil, fmt.Errorf("farm: journal: %w", err)
	}
	jl := &Journal{
		path:      path,
		log:       st,
		entries:   make(map[int]*JournalEntry),
		recovered: replayOps(res.Payloads),
	}
	jl.recoveredLive = len(jl.recovered) > 0
	// Compact on open: the log restarts as exactly the interrupted-state
	// recovery set, dropping the old process's delta history.
	if err := jl.compactLocked(); err != nil {
		st.Close()
		return nil, err
	}
	return jl, nil
}

// replayOps folds a journal's op payloads into the entries they leave live,
// in submission order, each marked interrupted: whatever it was doing, it is
// not anymore.
func replayOps(payloads [][]byte) []JournalEntry {
	live := make(map[int]*JournalEntry)
	for _, p := range payloads {
		op, err := decodeOp(p)
		if err != nil {
			continue // CRC-intact but undecodable: skip, never invent state
		}
		switch op.Op {
		case "add":
			if op.Entry != nil {
				e := *op.Entry
				live[e.ID] = &e
			}
		case "state":
			if e, ok := live[op.ID]; ok {
				e.State = op.State
			}
		case "checkpoint":
			if e, ok := live[op.ID]; ok {
				e.Checkpoint = op.Checkpoint
			}
		case "remove":
			delete(live, op.ID)
		}
	}
	ids := make([]int, 0, len(live))
	for id := range live {
		ids = append(ids, id)
	}
	sort.Ints(ids) // ids rise with submission, so this is submission order
	var out []JournalEntry
	for _, id := range ids {
		e := *live[id]
		e.State = "interrupted"
		// A tail shares the segment's read buffer; keep only the bytes.
		e.Checkpoint = bytes.Clone(e.Checkpoint)
		out = append(out, e)
	}
	return out
}

// addOps encodes one add op per entry: the whole content of a compacted
// journal.
func addOps(jobs []JournalEntry) ([][]byte, error) {
	payloads := make([][]byte, 0, len(jobs))
	for i := range jobs {
		p, err := encodeOp(journalOp{Op: "add", Entry: &jobs[i]})
		if err != nil {
			return nil, err
		}
		payloads = append(payloads, p.Bytes())
	}
	return payloads, nil
}

// Path returns the journal file location.
func (jl *Journal) Path() string { return jl.path }

// Recovered returns the jobs a previous process left unfinished, in
// submission order. The caller decides how to re-queue them (typically by
// rebuilding each from its Spec and resuming from its Checkpoint).
func (jl *Journal) Recovered() []JournalEntry {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	out := make([]JournalEntry, len(jl.recovered))
	copy(out, jl.recovered)
	return out
}

// Len returns the number of live entries.
func (jl *Journal) Len() int {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	return len(jl.entries)
}

// Entry returns one live entry by id — the scheduler's retention fallback
// uses it to synthesize a status stub for an evicted-but-still-journaled
// job. Checks the recovered set too: a not-yet-re-queued entry is still
// "a job this journal knows about".
func (jl *Journal) Entry(id int) (JournalEntry, bool) {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if e, ok := jl.entries[id]; ok {
		return *e, true
	}
	if jl.recoveredLive {
		for _, e := range jl.recovered {
			if e.ID == id {
				return e, true
			}
		}
	}
	return JournalEntry{}, false
}

// Close releases the underlying store handle (tests and tools; the daemon
// holds its journal for the process lifetime).
func (jl *Journal) Close() error {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	return jl.log.Close()
}

func (jl *Journal) add(e JournalEntry) error {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	jl.entries[e.ID] = &e
	return jl.appendLocked(journalOp{Op: "add", Entry: &e})
}

func (jl *Journal) setState(id int, state string) error {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	e, ok := jl.entries[id]
	if !ok {
		return nil
	}
	e.State = state
	return jl.appendLocked(journalOp{Op: "state", ID: id, State: state})
}

// setCheckpoint journals cp as the entry's checkpoint. The entry keeps cp
// itself, and the store writes it from cp's buffer.
func (jl *Journal) setCheckpoint(id int, cp []byte) error {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	e, ok := jl.entries[id]
	if !ok {
		return nil // job already retired; a late checkpoint is not an error
	}
	e.Checkpoint = cp
	return jl.appendLocked(journalOp{Op: "checkpoint", ID: id, Checkpoint: cp})
}

// encodeOp lays op out as a seglog payload; see journalOp.
func encodeOp(op journalOp) (seglog.Payload, error) {
	tail := op.Checkpoint
	if op.Entry != nil {
		tail = op.Entry.Checkpoint
	}
	h, err := json.Marshal(op)
	if err != nil {
		return seglog.Payload{}, fmt.Errorf("farm: journal: %w", err)
	}
	return seglog.Payload{Header: h, Tail: tail}, nil
}

// decodeOp reads an op encodeOp wrote. A tail goes where encodeOp took it
// from; an op that has no place for one is undecodable. A checkpoint in the
// header's JSON is not read: the entry comes back without it.
func decodeOp(p []byte) (journalOp, error) {
	var op journalOp
	pl, err := seglog.SplitPayload(p)
	if err != nil {
		return op, err
	}
	if err := json.Unmarshal(pl.Header, &op); err != nil {
		return op, err
	}
	switch {
	case len(pl.Tail) == 0:
	case op.Op == "checkpoint":
		op.Checkpoint = pl.Tail
	case op.Op == "add" && op.Entry != nil:
		op.Entry.Checkpoint = pl.Tail
	default:
		return op, fmt.Errorf("farm: journal: %q op with a tail it has no place for", op.Op)
	}
	return op, nil
}

func (jl *Journal) remove(id int) error {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if _, ok := jl.entries[id]; !ok {
		return nil
	}
	delete(jl.entries, id)
	return jl.appendLocked(journalOp{Op: "remove", ID: id})
}

// appendLocked persists deltas, O(1) in journal size. The first mutation
// after open also retires the previous process's recovered entries from
// disk — by then the caller has had its chance to re-queue them, and the
// old whole-doc rewrite dropped them at exactly this point.
func (jl *Journal) appendLocked(ops ...journalOp) error {
	if jl.recoveredLive {
		rm := make([]journalOp, 0, len(jl.recovered)+len(ops))
		for _, e := range jl.recovered {
			rm = append(rm, journalOp{Op: "remove", ID: e.ID})
		}
		ops = append(rm, ops...)
	}
	payloads := make([]seglog.Payload, len(ops))
	for i, op := range ops {
		p, err := encodeOp(op)
		if err != nil {
			return err
		}
		payloads[i] = p
	}
	if _, err := jl.log.AppendPayloads(payloads...); err != nil {
		return fmt.Errorf("farm: journal: %w", err)
	}
	jl.recoveredLive = false
	jl.opsSinceCompact += len(payloads)
	for _, p := range payloads {
		jl.bytesSinceCompact += p.Len()
	}
	if jl.opsSinceCompact >= journalCompactMinOps &&
		jl.opsSinceCompact > 8*(len(jl.entries)+1) ||
		jl.bytesSinceCompact >= journalCompactMinBytes &&
			jl.bytesSinceCompact > 8*jl.liveBytesLocked() {
		return jl.compactLocked()
	}
	return nil
}

// liveBytesLocked is about what a compaction writes: the live entries'
// specs and checkpoints.
func (jl *Journal) liveBytesLocked() int {
	n := 0
	for _, e := range jl.entries {
		n += len(e.Spec) + len(e.Checkpoint)
	}
	return n
}

// compactLocked rewrites the store to one "add" op per live entry (the
// recovery set while recoveredLive, the live map afterwards), with seglog's
// atomic manifest swap: a crash leaves either the old log or the new one.
func (jl *Journal) compactLocked() error {
	var jobs []JournalEntry
	if jl.recoveredLive {
		jobs = append(jobs, jl.recovered...)
	}
	for _, e := range jl.entries {
		jobs = append(jobs, *e)
	}
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].ID < jobs[k].ID })
	payloads, err := addOps(jobs)
	if err != nil {
		return err
	}
	if _, err := jl.log.Compact(payloads); err != nil {
		return fmt.Errorf("farm: journal: %w", err)
	}
	jl.opsSinceCompact, jl.bytesSinceCompact = 0, 0
	return nil
}
