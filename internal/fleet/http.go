package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"
)

// maxLeaseWait caps a lease long-poll so a coordinator never holds a request
// open indefinitely; workers simply re-poll.
const maxLeaseWait = 25 * time.Second

// Mount registers the fleet protocol under /api/v1/fleet/ on mux.
func (c *Coordinator) Mount(mux *http.ServeMux) {
	mux.HandleFunc("POST /api/v1/fleet/join", c.handleJoin)
	mux.HandleFunc("POST /api/v1/fleet/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /api/v1/fleet/lease", c.handleLease)
	mux.HandleFunc("POST /api/v1/fleet/report", c.handleReport)
}

func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.Wire != wireVersion {
		writeError(w, http.StatusConflict, "wire_mismatch", fmt.Errorf(
			"worker speaks fleet wire version %d, coordinator %d: run one build on every node",
			req.Wire, wireVersion))
		return
	}
	id, hb := c.Join(req.Name)
	writeJSON(w, http.StatusOK, joinResponse{WorkerID: id, HeartbeatS: hb.Seconds()})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if !readJSON(w, r, &req) {
		return
	}
	if err := c.Heartbeat(req.WorkerID, req.Retries); err != nil {
		workerError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if !readJSON(w, r, &req) {
		return
	}
	wait := time.Duration(req.WaitS * float64(time.Second))
	if wait < 0 {
		wait = 0
	}
	if wait > maxLeaseWait {
		wait = maxLeaseWait
	}
	sh, err := c.Lease(r.Context(), req.WorkerID, wait, req.Contexts...)
	if err != nil {
		workerError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, leaseResponse{Shard: sh})
}

func (c *Coordinator) handleReport(w http.ResponseWriter, r *http.Request) {
	var req reportRequest
	if !readJSON(w, r, &req) {
		return
	}
	if err := c.Report(req.WorkerID, req.ShardID, req.Results, req.Error); err != nil {
		workerError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// workerError maps coordinator errors onto the wire: unknown workers get a
// JSON 404 (the worker's cue to re-join), cancelled long polls a plain
// timeout-ish 200 would mask real errors so they stay 500s.
func workerError(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrUnknownWorker) {
		writeError(w, http.StatusNotFound, "unknown_worker", err)
		return
	}
	writeError(w, http.StatusInternalServerError, "internal", err)
}

// writeError answers with the daemon-wide error envelope
// {"error":{"code","message"}} so fleet responses parse exactly like every
// other endpoint's.
func writeError(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, map[string]map[string]string{"error": {
		"code":    code,
		"message": err.Error(),
	}})
}

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
