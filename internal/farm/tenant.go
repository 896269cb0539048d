package farm

import "sort"

// AnonymousTenant is the tenant every unattributed submission is accounted
// under: the daemon runs with auth off, or the job spec named no tenant.
// It exists so that "no tenant" still has quotas, fairness weight and
// metrics like any named tenant.
const AnonymousTenant = "anonymous"

// TenantLimits caps one tenant's share of the scheduler. Zero fields mean
// "no cap" — an unconfigured tenant can use the whole budget, which is the
// pre-tenancy behaviour.
type TenantLimits struct {
	// MaxWorkers caps the tenant's committed worker tokens: the sum of
	// worker counts over its live (queued + running) jobs. A submission
	// that would push the sum past the cap is rejected with
	// ErrQuotaExceeded, never queued — rejected work must not consume
	// budget or queue positions.
	MaxWorkers int `json:"max_workers,omitempty"`
	// MaxJobs caps the tenant's live (pending + running) jobs.
	MaxJobs int `json:"max_jobs,omitempty"`
	// Weight is added to every job's priority at admission, so a paying
	// tenant's jobs outrank an anonymous tenant's jobs of equal declared
	// priority. Ordering within one tenant is unaffected.
	Weight int `json:"weight,omitempty"`
}

// tenantState is the scheduler's per-tenant ledger, guarded by Scheduler.mu.
type tenantState struct {
	name   string
	limits TenantLimits

	live   int // pending + running jobs
	queued int // jobs waiting in the admission queue
	demand int // worker tokens committed to live jobs (queued + granted)
	inUse  int // worker tokens currently granted

	rejections int64 // quota-rejected submissions
	completed  int64 // jobs that reached a terminal state

	// terminal holds the tenant's terminal job ids oldest-first; the
	// retention policy evicts from the front once it outgrows the cap.
	terminal []int
}

// TenantStatus is one tenant's point-in-time scheduler view, JSON-ready for
// the daemon's metrics surface.
type TenantStatus struct {
	Tenant          string `json:"tenant"`
	LiveJobs        int    `json:"live_jobs"`
	QueueDepth      int    `json:"queue_depth"`
	WorkersInUse    int    `json:"workers_in_use"`
	WorkersDemand   int    `json:"workers_demand"`
	QuotaRejections int64  `json:"quota_rejections"`
	CompletedJobs   int64  `json:"completed_jobs"`
	RetainedJobs    int    `json:"retained_jobs"`
}

// SetTenantLimits installs per-tenant quotas and weights. Tenants absent
// from the map stay uncapped. Call before serving traffic; limits apply to
// submissions after the call.
func (s *Scheduler) SetTenantLimits(limits map[string]TenantLimits) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, lim := range limits {
		s.tenantLocked(name).limits = lim
	}
}

// SetRetention bounds how many terminal job statuses the scheduler keeps
// per tenant (default DefaultRetention). Older terminal jobs are evicted
// from the in-memory map — a long-lived daemon must not grow per
// submission forever. n < 1 keeps every terminal job (tests, short tools).
func (s *Scheduler) SetRetention(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.retention = n
	for _, ts := range s.tenants {
		s.evictLocked(ts)
	}
}

// tenantLocked returns (creating on first use) the tenant's ledger.
func (s *Scheduler) tenantLocked(name string) *tenantState {
	if name == "" {
		name = AnonymousTenant
	}
	ts, ok := s.tenants[name]
	if !ok {
		ts = &tenantState{name: name}
		s.tenants[name] = ts
	}
	return ts
}

// evictLocked enforces the retention cap on one tenant's terminal jobs.
func (s *Scheduler) evictLocked(ts *tenantState) {
	if s.retention < 1 {
		return
	}
	for len(ts.terminal) > s.retention {
		delete(s.jobs, ts.terminal[0])
		// Shift in place: the backing array stays bounded by the cap
		// instead of creeping forward with every append-and-reslice.
		n := copy(ts.terminal, ts.terminal[1:])
		ts.terminal = ts.terminal[:n]
	}
}

// Tenants snapshots every tenant the scheduler has seen, sorted by name.
func (s *Scheduler) Tenants() []TenantStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]TenantStatus, 0, len(s.tenants))
	for _, ts := range s.tenants {
		out = append(out, TenantStatus{
			Tenant:          ts.name,
			LiveJobs:        ts.live,
			QueueDepth:      ts.queued,
			WorkersInUse:    ts.inUse,
			WorkersDemand:   ts.demand,
			QuotaRejections: ts.rejections,
			CompletedJobs:   ts.completed,
			RetainedJobs:    len(ts.terminal),
		})
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Tenant < out[k].Tenant })
	return out
}
