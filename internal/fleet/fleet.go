// Package fleet distributes virus fitness evaluation across machines. The
// farm (package farm) spreads a GA generation over the cores of one host;
// the fleet spreads it over a fleet of hosts, turning the campaign daemon
// into a coordinator that remote worker processes join over HTTP.
//
// The protocol has four verbs:
//
//	join       a worker registers and receives its id and heartbeat interval
//	heartbeat  a worker proves liveness (and reports its transport retries)
//	lease      a worker pulls one shard of a pending batch (long poll)
//	report     a worker delivers a shard's fitness values, or its failure
//
// Determinism is inherited from the farm, not re-invented: a Session wraps a
// farm.Pool and reuses its serial prologue — one noise stream split off the
// root per chromosome, in index order, cache consulted in index order — and
// only replaces the dispatch step. Each shipped task carries its genome and
// the four state words of its pre-split RNG stream, so any worker, local or
// remote, measuring (genome, stream) on an identically constructed server
// produces the same value. Results are therefore bit-identical at any node
// count, through any re-queueing, and identical to the purely local
// farm.Pool run (server.Clone rebuilds from config, so a remote worker
// constructing the server from the shipped description starts from the same
// machine a local farm clone does).
//
// Failure handling: a worker that stops heartbeating is deregistered and its
// leased shards re-queued onto survivors; a leased shard not reported within
// the lease TTL is re-queued even if its holder still heartbeats (a stuck
// worker must not wedge the search — duplicated evaluations are wasted, not
// wrong, and the first report wins); a batch with no live workers degrades
// to the session's local pool. Workers retry transport errors with capped
// exponential backoff plus jitter and re-join when the coordinator forgets
// them (restart, expiry).
package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"dstress/internal/ga"
)

// contextDigest is the cache identity of an evaluation context — computed
// identically on both sides of the wire so a coordinator's digest matches
// the key a worker cached its evaluator under.
func contextDigest(evalCtx json.RawMessage) string {
	sum := sha256.Sum256(evalCtx)
	return hex.EncodeToString(sum[:])
}

// Task is one genome evaluation, fully determined by its wire content: the
// serialized chromosome and the state of the pre-split noise stream that
// must measure it.
type Task struct {
	Index  int             `json:"index"`
	Genome ga.GenomeRecord `json:"genome"`
	RNG    [4]uint64       `json:"rng"`
}

// TaskResult is one task's measured fitness.
type TaskResult struct {
	Index   int     `json:"index"`
	Fitness float64 `json:"fitness"`
}

// Shard is the leased unit of work: a slice of one batch's tasks plus the
// opaque description of the evaluation environment the worker must build
// (the daemon ships its job request; the fleet never interprets it).
type Shard struct {
	ID string `json:"id"`
	// Context is the shared evaluation-environment payload. It is shipped
	// once per environment per worker: when the leasing worker advertised
	// ContextDigest as already cached, the coordinator omits it and the
	// shard carries only the digest.
	Context json.RawMessage `json:"context,omitempty"`
	// ContextDigest is the hex SHA-256 of the context payload. Workers key
	// their built-evaluator cache by it and advertise known digests on every
	// lease, shrinking steady-state shard payloads from the whole job
	// request to 64 bytes.
	ContextDigest string `json:"context_digest,omitempty"`
	Tasks         []Task `json:"tasks"`
	// LeaseS is how long the worker holds the lease before the coordinator
	// re-queues the shard, in seconds.
	LeaseS float64 `json:"lease_s"`
}

// wireVersion names the task encoding a build speaks. Version 1 ships bit
// genomes packed (ga.GenomeRecord n/packed); a worker built before it reads
// them as empty chromosomes and would report wrong fitness, so the
// coordinator refuses a join that does not carry its own version.
const wireVersion = 1

// The wire bodies of the four protocol verbs.
type joinRequest struct {
	Name string `json:"name"`
	// Wire is the joining worker's wireVersion; workers built before the
	// field existed send none.
	Wire int `json:"wire"`
}

type joinResponse struct {
	WorkerID string `json:"worker_id"`
	// HeartbeatS is the heartbeat interval the coordinator expects.
	HeartbeatS float64 `json:"heartbeat_s"`
}

type heartbeatRequest struct {
	WorkerID string `json:"worker_id"`
	// Retries is the worker's cumulative transport-retry count, giving the
	// coordinator's metrics a fleet-wide view of link health.
	Retries int64 `json:"retries,omitempty"`
}

type leaseRequest struct {
	WorkerID string  `json:"worker_id"`
	WaitS    float64 `json:"wait_s,omitempty"` // long-poll budget
	// Contexts lists the context digests this worker holds built evaluators
	// for; the coordinator omits Shard.Context for any of them. An older
	// worker that never advertises simply receives the full payload every
	// time — the field is an optimization, not a protocol break.
	Contexts []string `json:"contexts,omitempty"`
}

type leaseResponse struct {
	Shard *Shard `json:"shard"` // nil: no work within the wait budget
}

type reportRequest struct {
	WorkerID string       `json:"worker_id"`
	ShardID  string       `json:"shard_id"`
	Results  []TaskResult `json:"results,omitempty"`
	// Error carries an evaluation failure (not a transport problem): it
	// fails the whole batch, exactly as a local worker error fails a pool
	// batch.
	Error string `json:"error,omitempty"`
}
