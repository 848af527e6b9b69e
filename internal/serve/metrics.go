package serve

import (
	"strconv"
	"sync"
	"time"

	"mupod/internal/obs"
)

// Pipeline stages instrumented with latency histograms.
const (
	StageResolve = "resolve"
	StageProfile = "profile"
	StageSearch  = "search"
	StageSolve   = "solve"
)

var stageNames = []string{StageResolve, StageProfile, StageSearch, StageSolve}

// Metrics aggregates the daemon's operational counters on a shared
// obs.Registry. Registration order is load-bearing: the families below
// (and the gauges the Manager adds right after) reproduce the exact
// byte layout of the pre-obs /metrics page — see TestMetricsGolden —
// with new families (build info, exec, solver) appended afterwards.
// All methods are safe for concurrent use.
type Metrics struct {
	reg *obs.Registry

	submitted *obs.Counter
	rejected  *obs.Counter
	done      *obs.Counter
	failed    *obs.Counter
	cancelled *obs.Counter

	cacheHits   *obs.Counter
	cacheMisses *obs.Counter

	stages map[string]*obs.LatencyHistogram // fixed key set, created at construction

	// Reliability counters, registered by the Manager after its gauges
	// (registerReliability) so the golden page prefix stays byte-stable.
	retries          *obs.Counter
	shed             *obs.Counter
	recoveredRequeue *obs.Counter
	recoveredFailed  *obs.Counter
	breakerOpens     *obs.Counter

	// Pareto-front families (registerPareto), appended for the same
	// golden-prefix reason. The pareto stage gets its own latency
	// family rather than a new series in mupod_stage_latency_seconds,
	// whose series set is frozen by the golden test.
	paretoLatency    *obs.LatencyHistogram
	frontCacheHits   *obs.Counter
	frontCacheMisses *obs.Counter

	// HTTP RED families (registerHTTP): request counts by
	// route/method/code, per-route latency, in-flight gauge. Duration
	// series are created eagerly for the known route set so the
	// exposition layout is stable; request counters materialize on
	// first hit (a fresh daemon has served nothing) behind a small
	// cache so the hot path skips the registry's find-or-register scan.
	httpInFlight  *obs.Gauge
	httpDurations map[string]*obs.LatencyHistogram

	httpMu   sync.Mutex
	httpReqs map[string]*obs.Counter // keyed route|method|code

	// Per-tenant families (mupod_tenant_*), materialized lazily the
	// first time a tenant is seen so an untenanted daemon's /metrics
	// page is unchanged. Cardinality is bounded: past maxTenantSeries
	// distinct tenants, new ones fold into the "_other" series.
	tenantMu sync.Mutex
	tenants  map[string]*tenantSeries
}

// maxTenantSeries bounds the distinct tenant label values exported on
// /metrics; tenants beyond it share the tenantOverflow series. The
// scheduler itself is unbounded — this caps exposition cardinality, not
// fairness.
const maxTenantSeries = 32

// tenantOverflow is the tenant label folding the long tail.
const tenantOverflow = "_other"

// tenantSeries is one tenant's metric set.
type tenantSeries struct {
	jobs    *obs.Counter          // submissions accepted
	shed    *obs.Counter          // submissions shed (queue full or quota)
	latency *obs.LatencyHistogram // submit→done latency of completed jobs
}

// NewMetrics creates the daemon's counter set on a fresh registry.
func NewMetrics() *Metrics {
	r := obs.NewRegistry()
	m := &Metrics{reg: r}
	m.submitted = r.Counter("mupod_jobs_submitted_total", "Jobs accepted into the queue.")
	m.rejected = r.Counter("mupod_jobs_rejected_total", "Submissions rejected (queue full or draining).")
	m.done = r.Counter("mupod_jobs_completed_total", "Jobs finished, by terminal state.", "state", "done")
	m.failed = r.Counter("mupod_jobs_completed_total", "Jobs finished, by terminal state.", "state", "failed")
	m.cancelled = r.Counter("mupod_jobs_completed_total", "Jobs finished, by terminal state.", "state", "cancelled")
	m.cacheHits = r.Counter("mupod_profile_cache_hits_total", "Profiling runs served from the content-addressed cache.")
	m.cacheMisses = r.Counter("mupod_profile_cache_misses_total", "Profiling runs computed from scratch.")
	m.stages = make(map[string]*obs.LatencyHistogram, len(stageNames))
	for _, s := range stageNames {
		m.stages[s] = r.LatencyHistogram("mupod_stage_latency_seconds", "Per-stage pipeline latency.", "stage", s)
	}
	return m
}

// Registry exposes the underlying registry so more families can be
// attached (the Manager adds its gauges, exec and optimize their
// engine counters) and the HTTP layer can render the whole page.
func (m *Metrics) Registry() *obs.Registry { return m.reg }

// ObserveStage records one stage latency.
func (m *Metrics) ObserveStage(stage string, d time.Duration) {
	if h, ok := m.stages[stage]; ok {
		h.Observe(d)
	}
}

// CacheHits returns the profile-cache hit count so far.
func (m *Metrics) CacheHits() uint64 { return m.cacheHits.Value() }

// CacheMisses returns the profile-cache miss count so far.
func (m *Metrics) CacheMisses() uint64 { return m.cacheMisses.Value() }

// registerReliability attaches the retry/shedding/recovery counter
// families. The Manager calls it after registerGauges so these append
// to the /metrics page instead of disturbing the golden prefix.
func (m *Metrics) registerReliability() {
	m.retries = m.reg.Counter("mupod_job_retries_total", "Job runs re-queued after a transient failure.")
	m.shed = m.reg.Counter("mupod_jobs_shed_total", "Submissions shed with 429 because the queue was saturated.")
	m.recoveredRequeue = m.reg.Counter("mupod_jobs_recovered_total", "Jobs restored from the journal at startup, by disposition.", "disposition", "requeued")
	m.recoveredFailed = m.reg.Counter("mupod_jobs_recovered_total", "Jobs restored from the journal at startup, by disposition.", "disposition", "failed")
	m.breakerOpens = m.reg.Counter("mupod_breaker_opens_total", "Times the profile circuit breaker tripped open.")
}

// registerPareto attaches the Pareto-front stage families. Called by
// the Manager after every pre-existing registration, so the /metrics
// page grows strictly at the end.
func (m *Metrics) registerPareto() {
	m.paretoLatency = m.reg.LatencyHistogram("mupod_pareto_latency_seconds", "Pareto-front stage latency (sweep or NSGA-II search).")
	m.frontCacheHits = m.reg.Counter("mupod_front_cache_hits_total", "Pareto fronts served from the content-addressed front cache.")
	m.frontCacheMisses = m.reg.Counter("mupod_front_cache_misses_total", "Pareto fronts computed from scratch.")
}

// registerHTTP attaches the HTTP RED families for the given route set.
// Called by NewHandler-adjacent wiring after every earlier
// registration, so the /metrics page keeps growing strictly at the end.
func (m *Metrics) registerHTTP(routes []string) {
	m.httpMu.Lock()
	defer m.httpMu.Unlock()
	if m.httpDurations != nil {
		return // one manager can serve several handlers (tests)
	}
	m.httpInFlight = m.reg.Gauge("mupod_http_in_flight", "HTTP requests currently being served.")
	m.httpDurations = make(map[string]*obs.LatencyHistogram, len(routes))
	for _, rt := range routes {
		m.httpDurations[rt] = m.reg.LatencyHistogram("mupod_http_request_duration_seconds",
			"HTTP request latency by route (submit-to-response, log-linear buckets folded onto the standard bounds).",
			"route", rt)
	}
	m.httpReqs = make(map[string]*obs.Counter)
}

// httpRequest records one served request into the RED families.
func (m *Metrics) httpRequest(route, method string, code int, d time.Duration) {
	codeStr := strconv.Itoa(code)
	key := route + "|" + method + "|" + codeStr
	m.httpMu.Lock()
	if m.httpReqs == nil {
		m.httpMu.Unlock()
		return // handler built without registerHTTP (not reachable in prod)
	}
	c, ok := m.httpReqs[key]
	if !ok {
		c = m.reg.Counter("mupod_http_requests_total", "HTTP requests served, by route, method and status code.",
			"route", route, "method", method, "code", codeStr)
		m.httpReqs[key] = c
	}
	h, hok := m.httpDurations[route]
	m.httpMu.Unlock()
	c.Inc()
	if hok {
		h.Observe(d)
	}
}

// HTTPDuration exposes a route's latency histogram (nil for unknown
// routes) — tests and the readiness probe read quantiles off it.
func (m *Metrics) HTTPDuration(route string) *obs.LatencyHistogram {
	m.httpMu.Lock()
	defer m.httpMu.Unlock()
	return m.httpDurations[route]
}

// tenant returns (registering on first sight) the named tenant's metric
// series. depth, when non-nil, becomes a mupod_tenant_queue_depth gauge
// for the tenant; the overflow series never gets one (it aggregates
// tenants the scheduler tracks individually). Families register lazily,
// which also keeps them strictly after every startup-time registration
// — the golden-page prefix is untouched.
func (m *Metrics) tenant(name string, depth func() float64) *tenantSeries {
	m.tenantMu.Lock()
	defer m.tenantMu.Unlock()
	if m.tenants == nil {
		m.tenants = make(map[string]*tenantSeries)
	}
	if ts, ok := m.tenants[name]; ok {
		return ts
	}
	if len(m.tenants) >= maxTenantSeries && name != tenantOverflow {
		if ts, ok := m.tenants[tenantOverflow]; ok {
			return ts
		}
		name, depth = tenantOverflow, nil
	}
	ts := &tenantSeries{
		jobs: m.reg.Counter("mupod_tenant_jobs_total",
			"Jobs accepted into the queue, by tenant.", "tenant", name),
		shed: m.reg.Counter("mupod_tenant_shed_total",
			"Submissions shed with 429 (queue full or tenant quota), by tenant.", "tenant", name),
		latency: m.reg.LatencyHistogram("mupod_tenant_job_duration_seconds",
			"Start-to-done latency of completed jobs, by tenant.", "tenant", name),
	}
	if depth != nil {
		m.reg.GaugeFunc("mupod_tenant_queue_depth",
			"Jobs waiting for a worker, by tenant.", depth, "tenant", name)
	}
	m.tenants[name] = ts
	return ts
}

// TenantJobs returns the accepted-job count for a tenant's series (0
// for a tenant never seen) — test hook.
func (m *Metrics) TenantJobs(name string) uint64 {
	m.tenantMu.Lock()
	defer m.tenantMu.Unlock()
	if ts, ok := m.tenants[name]; ok {
		return ts.jobs.Value()
	}
	return 0
}

// TenantShed returns the shed count for a tenant's series — test hook.
func (m *Metrics) TenantShed(name string) uint64 {
	m.tenantMu.Lock()
	defer m.tenantMu.Unlock()
	if ts, ok := m.tenants[name]; ok {
		return ts.shed.Value()
	}
	return 0
}

// ObservePareto records one Pareto stage latency.
func (m *Metrics) ObservePareto(d time.Duration) {
	m.paretoLatency.Observe(d)
}

// FrontCacheHits returns the front-cache hit count so far.
func (m *Metrics) FrontCacheHits() uint64 { return m.frontCacheHits.Value() }

// FrontCacheMisses returns the front-cache miss count so far.
func (m *Metrics) FrontCacheMisses() uint64 { return m.frontCacheMisses.Value() }

// Retries returns the transient-retry count so far.
func (m *Metrics) Retries() uint64 { return m.retries.Value() }

// Shed returns the queue-saturation shed count so far.
func (m *Metrics) Shed() uint64 { return m.shed.Value() }

func (m *Metrics) jobCompleted(s State) {
	switch s {
	case StateDone:
		m.done.Inc()
	case StateFailed:
		m.failed.Inc()
	case StateCancelled:
		m.cancelled.Inc()
	}
}
