package main

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strings"

	"dstress/internal/farm"
)

// authConfig is the static auth file the daemon loads at start:
//
//	{
//	  "tokens":  {"tokA": "alpha", "tokB": "beta", "tokOps": "ops"},
//	  "tenants": {"alpha": {"max_workers": 4, "max_jobs": 2, "weight": 1}},
//	  "admins":  ["ops"]
//	}
//
// tokens maps each bearer token to the tenant it authenticates as; tenants
// carries the per-tenant scheduler limits (farm.TenantLimits — absent or
// zero fields mean uncapped). A tenant may own several tokens. Tenants named
// only under "tenants" still get their limits; tenants named only under
// "tokens" run uncapped. admins lists operator tenants with cross-tenant
// visibility: everyone else sees (and can cancel, wait on or list) only
// their own jobs — job ids are small sequential integers, so without the
// ownership check any token holder could enumerate and cancel every other
// tenant's work.
type authConfig struct {
	Tokens  map[string]string            `json:"tokens"`
	Tenants map[string]farm.TenantLimits `json:"tenants"`
	Admins  []string                     `json:"admins"`
}

// isAdmin reports whether the tenant is listed as an operator with
// cross-tenant visibility.
func (a *authConfig) isAdmin(tenant string) bool {
	for _, t := range a.Admins {
		if t == tenant {
			return true
		}
	}
	return false
}

func loadAuthConfig(path string) (*authConfig, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("auth config: %w", err)
	}
	var cfg authConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("auth config %s: %w", path, err)
	}
	if len(cfg.Tokens) == 0 {
		return nil, fmt.Errorf("auth config %s: no tokens", path)
	}
	for tok, tenant := range cfg.Tokens {
		if tok == "" || tenant == "" {
			return nil, fmt.Errorf("auth config %s: empty token or tenant", path)
		}
	}
	return &cfg, nil
}

// tenantKey carries the authenticated tenant through the request context.
type tenantKey struct{}

// tenantOf returns the tenant the request authenticated as, or the anonymous
// tenant when the daemon runs with auth off.
func tenantOf(r *http.Request) string {
	if t, ok := r.Context().Value(tenantKey{}).(string); ok {
		return t
	}
	return farm.AnonymousTenant
}

// authenticate resolves the request's bearer token to a tenant. Comparison
// is constant-time per token so a probing client cannot bisect a token byte
// by byte off the response latency.
func (a *authConfig) authenticate(r *http.Request) (string, error) {
	h := r.Header.Get("Authorization")
	if h == "" {
		return "", errors.New("missing Authorization header")
	}
	tok, ok := strings.CutPrefix(h, "Bearer ")
	if !ok || tok == "" {
		return "", errors.New("malformed Authorization header (want Bearer <token>)")
	}
	for want, tenant := range a.Tokens {
		if len(want) == len(tok) &&
			subtle.ConstantTimeCompare([]byte(want), []byte(tok)) == 1 {
			return tenant, nil
		}
	}
	return "", errors.New("unknown token")
}

// withAuth gates the API surface behind bearer-token auth: every /api/...
// route (the fleet worker protocol included) requires a known token, and the
// resolved tenant rides the request context into quota accounting and job
// visibility. The pprof surface stays open — it is an operator loopback, not
// the tenant API, and names no tenant's jobs. A nil config is auth-off:
// everything passes as the anonymous tenant.
func withAuth(cfg *authConfig, next http.Handler) http.Handler {
	if cfg == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/api/") {
			next.ServeHTTP(w, r)
			return
		}
		tenant, err := cfg.authenticate(r)
		if err != nil {
			w.Header().Set("WWW-Authenticate", `Bearer realm="dstressd"`)
			httpError(w, http.StatusUnauthorized, err)
			return
		}
		ctx := context.WithValue(r.Context(), tenantKey{}, tenant)
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}
