package farm

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"dstress/internal/checkpoint"
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
	// first checkpoints.
	Checkpoint json.RawMessage `json:"checkpoint,omitempty"`
	// State is informational: "pending", "running", or "interrupted".
	State     string    `json:"state"`
	Submitted time.Time `json:"submitted"`
}

// journalDoc is the pre-seglog persisted form — the whole journal as one
// checkpoint record. It survives only as the migration source: a legacy
// journal file found at the path is converted to the segmented store on
// open.
type journalDoc struct {
	Jobs []JournalEntry `json:"jobs"`
}

// journalOp is one persisted delta. The journal used to rewrite the whole
// document on every state change — O(journal size) per update, O(N²)
// cumulative; now each change appends one CRC'd frame and the live set is
// the result of replaying them.
type journalOp struct {
	Op         string          `json:"op"` // "add", "state", "checkpoint", "remove"
	ID         int             `json:"id,omitempty"`
	Entry      *JournalEntry   `json:"entry,omitempty"`
	State      string          `json:"state,omitempty"`
	Checkpoint json.RawMessage `json:"checkpoint,omitempty"`
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
	recoveredLive   bool
	opsSinceCompact int
}

// OpenJournal opens (or creates) the journal at path and sets aside any
// entries a previous process left behind — see Recovered. The new process
// starts with an empty live set; re-queueing recovered jobs re-journals
// them under fresh ids. A journal in the pre-seglog single-file format is
// migrated to the segmented store in place (the original bytes are kept at
// <path>.legacy), and the store is compacted on open so recovered entries
// are rewritten in their interrupted state as the log's canonical contents.
func OpenJournal(path string) (*Journal, error) {
	convert := func(data []byte) ([][]byte, error) {
		res, err := checkpoint.LoadBytes(data, path)
		if err != nil {
			if checkpoint.IsEmpty(err) {
				return nil, nil
			}
			return nil, fmt.Errorf("farm: journal: %w", err)
		}
		var doc journalDoc
		if err := json.Unmarshal(res.Payload, &doc); err != nil {
			return nil, fmt.Errorf("farm: journal: %s: %w", path, err)
		}
		payloads := make([][]byte, 0, len(doc.Jobs))
		for i := range doc.Jobs {
			p, err := json.Marshal(journalOp{Op: "add", Entry: &doc.Jobs[i]})
			if err != nil {
				return nil, fmt.Errorf("farm: journal: %w", err)
			}
			payloads = append(payloads, p)
		}
		return payloads, nil
	}
	if err := seglog.Migrate(path, journalStoreOptions, convert); err != nil {
		return nil, fmt.Errorf("farm: journal: %w", err)
	}
	st, res, err := seglog.Open(path, journalStoreOptions)
	if err != nil {
		return nil, fmt.Errorf("farm: journal: %w", err)
	}
	live := make(map[int]*JournalEntry)
	for _, p := range res.Payloads {
		var op journalOp
		if err := json.Unmarshal(p, &op); err != nil {
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
	jl := &Journal{
		path:    path,
		log:     st,
		entries: make(map[int]*JournalEntry),
	}
	ids := make([]int, 0, len(live))
	for id := range live {
		ids = append(ids, id)
	}
	sort.Ints(ids) // ids rise with submission, so this is submission order
	for _, id := range ids {
		e := *live[id]
		e.State = "interrupted" // whatever it was doing, it is not anymore
		jl.recovered = append(jl.recovered, e)
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

func (jl *Journal) setCheckpoint(id int, cp json.RawMessage) error {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	e, ok := jl.entries[id]
	if !ok {
		return nil // job already retired; a late checkpoint is not an error
	}
	p, raw, err := checkpointOp(id, cp)
	if err != nil {
		return err
	}
	e.Checkpoint = raw
	return jl.writeLocked(p)
}

// checkpointOp frames a "checkpoint" op around cp by hand and returns the
// frame with the checkpoint's bytes inside it, which the live entry shares
// instead of copying. json.Marshal(journalOp{...}) would scan and copy a
// checkpoint of megabytes once more only to re-compact what its caller
// already marshalled; for encoding/json output (compact, HTML-escaped) the
// bytes here are the same. json.Valid still refuses what is not JSON.
func checkpointOp(id int, cp json.RawMessage) (frame []byte, raw json.RawMessage, err error) {
	if len(cp) > 0 && !json.Valid(cp) {
		return nil, nil, fmt.Errorf("farm: journal: checkpoint of job %d is not valid JSON", id)
	}
	frame = make([]byte, 0, len(cp)+48)
	frame = append(frame, `{"op":"checkpoint"`...)
	if id != 0 {
		frame = append(frame, `,"id":`...)
		frame = strconv.AppendInt(frame, int64(id), 10)
	}
	if len(cp) > 0 {
		frame = append(frame, `,"checkpoint":`...)
		start := len(frame)
		frame = append(frame, cp...)
		raw = frame[start:len(frame):len(frame)]
	}
	return append(frame, '}'), raw, nil
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
	payloads := make([][]byte, 0, len(ops))
	for _, op := range ops {
		p, err := json.Marshal(op)
		if err != nil {
			return fmt.Errorf("farm: journal: %w", err)
		}
		payloads = append(payloads, p)
	}
	return jl.writeLocked(payloads...)
}

// writeLocked appends encoded ops; see appendLocked.
func (jl *Journal) writeLocked(payloads ...[]byte) error {
	if jl.recoveredLive {
		rm := make([][]byte, 0, len(jl.recovered)+len(payloads))
		for _, e := range jl.recovered {
			p, err := json.Marshal(journalOp{Op: "remove", ID: e.ID})
			if err != nil {
				return fmt.Errorf("farm: journal: %w", err)
			}
			rm = append(rm, p)
		}
		payloads = append(rm, payloads...)
	}
	if _, err := jl.log.Append(payloads...); err != nil {
		return fmt.Errorf("farm: journal: %w", err)
	}
	jl.recoveredLive = false
	jl.opsSinceCompact += len(payloads)
	if jl.opsSinceCompact >= journalCompactMinOps &&
		jl.opsSinceCompact > 8*(len(jl.entries)+1) {
		return jl.compactLocked()
	}
	return nil
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
	payloads := make([][]byte, 0, len(jobs))
	for i := range jobs {
		p, err := json.Marshal(journalOp{Op: "add", Entry: &jobs[i]})
		if err != nil {
			return fmt.Errorf("farm: journal: %w", err)
		}
		payloads = append(payloads, p)
	}
	if _, err := jl.log.Compact(payloads); err != nil {
		return fmt.Errorf("farm: journal: %w", err)
	}
	jl.opsSinceCompact = 0
	return nil
}
