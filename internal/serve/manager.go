// Package serve turns the one-shot optimization pipeline into a
// long-running service: submitted jobs enter a bounded queue, a worker
// pool drains them through profile → σ search → ξ solve → allocation,
// and a content-addressed profile cache (see ProfileKey) lets repeated
// submissions of the same network skip the expensive error-injection
// profiling entirely. With a Config.DataDir the job table is durable: a
// snapshot plus JSON-lines journal survive kill -9, and on restart the
// manager re-enqueues whatever had not finished. cmd/mupodd exposes the
// manager over HTTP.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"sync"
	"sync/atomic"

	"mupod/internal/core"
	"mupod/internal/dataset"
	"mupod/internal/exec"
	"mupod/internal/fault"
	"mupod/internal/kernels"
	"mupod/internal/nn"
	"mupod/internal/obs"
	"mupod/internal/optimize"
	"mupod/internal/pareto"
	"mupod/internal/profile"
	"mupod/internal/search"
)

// Sentinel errors returned by Submit/Get/Cancel; the HTTP layer maps
// them to status codes (ErrQueueFull becomes 429 with a Retry-After).
var (
	ErrQueueFull  = errors.New("serve: job queue is full")
	ErrDraining   = errors.New("serve: manager is draining, not accepting jobs")
	ErrUnknownJob = errors.New("serve: unknown job")
)

// Resolver turns a validated JobRequest into the network and dataset
// the pipeline runs on. The default resolver loads model-zoo
// architectures and trains inline netdesc descriptions; tests inject
// their own.
type Resolver func(ctx context.Context, req *JobRequest) (*nn.Network, *dataset.Dataset, error)

// Config tunes a Manager.
type Config struct {
	// Workers is the number of concurrent pipeline workers (default 2).
	Workers int
	// JobWorkers is the default evaluation parallelism handed to each
	// job whose request leaves Workers unset. The default divides the
	// machine across the queue workers: max(1, GOMAXPROCS/Workers), so
	// a fully-loaded queue does not oversubscribe the CPU while a lone
	// job still uses its full share.
	JobWorkers int
	// Kernel is the default intra-op sharding policy for jobs whose
	// request leaves it unset (zero value = serial kernels).
	Kernel kernels.Policy
	// QueueDepth bounds the number of queued-but-not-running jobs;
	// submissions beyond it are shed with ErrQueueFull (default 64).
	// The bound is a single admission invariant: first submissions,
	// batch items and retry re-queues all count against it.
	QueueDepth int
	// TenantWeights assigns deficit-round-robin scheduling weights to
	// tenants (see ParseTenantWeights for the flag syntax). A tenant
	// not listed weighs 1; with no weights at all, scheduling is plain
	// round-robin across backlogged tenants.
	TenantWeights map[string]int
	// TenantQuota caps any one tenant's queued jobs (0 = no per-tenant
	// cap). Submissions beyond it are shed with ErrTenantQuota even
	// when the pool as a whole has room.
	TenantQuota int
	// StageTimeout bounds each pipeline stage (resolve, profile,
	// search, solve) individually; 0 disables the per-stage deadline.
	StageTimeout time.Duration
	// CacheEntries caps the profile cache (default 64).
	CacheEntries int
	// CacheBytes additionally budgets the profile cache by summed
	// estimated profile size (see serve.ProfileCost); 0 = unlimited.
	CacheBytes int64
	// FrontCacheEntries caps the content-addressed Pareto front cache
	// (default 64).
	FrontCacheEntries int
	// Resolver overrides the request→network resolution (default
	// DefaultResolver).
	Resolver Resolver
	// Logf receives job lifecycle events (default: discarded).
	Logf func(format string, args ...any)
	// TraceSpans caps each job's span buffer (0 selects
	// obs.DefaultMaxSpans; negative disables per-job tracing). Finished
	// jobs expose their buffer via GET /debug/trace/{id}.
	TraceSpans int

	// DataDir, when set, makes the job table durable: submissions,
	// state transitions and results are journaled there (fsynced
	// JSON lines) and replayed on the next startup. Empty keeps the
	// pre-durability in-memory behavior.
	DataDir string
	// MaxAttempts caps how many runs a job gets across transient
	// failures and crash recoveries (default 3).
	MaxAttempts int
	// RetryBaseDelay seeds the exponential backoff between attempts
	// (default 200ms); the delay for attempt n is min(base·2ⁿ⁻¹,
	// RetryMaxDelay) with full jitter.
	RetryBaseDelay time.Duration
	// RetryMaxDelay caps the backoff (default 30s).
	RetryMaxDelay time.Duration
	// BreakerThreshold is how many consecutive profile-compute failures
	// open the circuit breaker (default 5; negative disables it).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before letting
	// a probe through (default 30s).
	BreakerCooldown time.Duration
	// NoFsync skips the per-record journal fsync — faster, but a crash
	// can lose the last few records. Meant for tests.
	NoFsync bool
}

// Manager owns the job table, the queue and the worker pool.
type Manager struct {
	cfg     Config
	metrics *Metrics
	cache   *ProfileCache
	fronts  *frontCache
	journal *journal // nil without DataDir
	breaker *breaker // nil when disabled

	sched    *scheduler
	drainc   chan struct{} // closed when draining starts; wakes retry waiters
	wg       sync.WaitGroup
	retryWG  sync.WaitGroup
	inflight atomic.Int64 // jobs a worker is currently running; feeds Retry-After

	// Cluster mode (see cluster.go); all zero in single-node operation.
	// crashed gates the replication hooks so a simulated kill -9 sends
	// no tombstones, and idPrefix makes job IDs unique cluster-wide.
	clusterPtr atomic.Pointer[Cluster]
	crashed    atomic.Bool
	idPrefix   string

	mu          sync.Mutex
	jobs        map[string]*Job
	order       []string // submission order, for listing
	nextID      int
	epoch       int64 // compaction epoch of the current snapshot+journal pair
	draining    bool
	ewmaJobSecs float64 // smoothed job duration, feeds Retry-After
}

// New creates a Manager, replays any durable state under cfg.DataDir,
// and starts the worker pool.
func New(cfg Config) (*Manager, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.JobWorkers <= 0 {
		cfg.JobWorkers = runtime.GOMAXPROCS(0) / cfg.Workers
		if cfg.JobWorkers < 1 {
			cfg.JobWorkers = 1
		}
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Resolver == nil {
		cfg.Resolver = DefaultResolver
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.RetryBaseDelay <= 0 {
		cfg.RetryBaseDelay = 200 * time.Millisecond
	}
	if cfg.RetryMaxDelay <= 0 {
		cfg.RetryMaxDelay = 30 * time.Second
	}
	threshold := cfg.BreakerThreshold
	switch {
	case threshold == 0:
		threshold = 5
	case threshold < 0:
		threshold = 0 // disabled
	}
	m := &Manager{
		cfg:     cfg,
		metrics: NewMetrics(),
		cache:   NewProfileCacheBytes(cfg.CacheEntries, cfg.CacheBytes),
		fronts:  newFrontCache(cfg.FrontCacheEntries),
		sched:   newScheduler(cfg.QueueDepth, cfg.TenantQuota, cfg.TenantWeights),
		drainc:  make(chan struct{}),
		jobs:    make(map[string]*Job),
	}
	m.registerGauges()
	m.metrics.registerReliability()
	m.breaker = newBreaker(threshold, cfg.BreakerCooldown, func() {
		m.metrics.breakerOpens.Add(1)
		m.cfg.Logf("serve: profile circuit breaker opened (cooldown %v)", cfg.BreakerCooldown)
	})
	m.metrics.Registry().GaugeFunc("mupod_breaker_state",
		"Profile circuit breaker state (0 closed, 1 open, 2 half-open).", func() float64 {
			return float64(m.breaker.State())
		})
	// The engine counters live behind process-wide pointers (see
	// exec.EnableMetrics); the newest manager's registry wins, which in
	// the daemon — one Manager per process — is simply "the" registry.
	exec.EnableMetrics(m.metrics.Registry())
	kernels.EnableMetrics(m.metrics.Registry())
	optimize.EnableMetrics(m.metrics.Registry())
	m.metrics.registerPareto()
	pareto.EnableMetrics(m.metrics.Registry())
	m.metrics.Registry().GaugeFunc("mupod_front_cache_entries", "Pareto fronts currently cached.", func() float64 {
		return float64(m.fronts.Len())
	})
	obs.RegisterRuntimeMetrics(m.metrics.Registry())

	var pending []*Job
	if cfg.DataDir != "" {
		if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: creating data dir: %w", err)
		}
		st, err := loadState(cfg.DataDir, cfg.Logf)
		if err != nil {
			return nil, err
		}
		pending = m.restore(st)
		// Compact: the replayed table (with recovery dispositions
		// applied) becomes the new snapshot and the journal restarts
		// empty — replay cost stays proportional to one uptime, not
		// the daemon's whole history. The epoch increment is what makes
		// the snapshot-install / journal-truncate pair crash-atomic: a
		// kill between the two leaves a journal whose epoch header no
		// longer matches the snapshot, so the next replay ignores it
		// instead of resurrecting pre-compaction state.
		m.epoch = st.epoch + 1
		if err := writeSnapshot(cfg.DataDir, m.snapshotNow()); err != nil {
			return nil, err
		}
		// Chaos hook for the compaction crash window (snapshot
		// installed, journal not yet truncated).
		if err := fault.Hit(context.Background(), "serve.compact.window"); err != nil {
			return nil, fmt.Errorf("serve: compaction interrupted: %w", err)
		}
		jr, err := openJournal(cfg.DataDir, true, cfg.NoFsync, cfg.Logf)
		if err != nil {
			return nil, err
		}
		m.journal = jr
		m.journal.writeEpoch(m.epoch, time.Now())
	}
	// The recovered backlog is force-admitted past the QueueDepth/quota
	// bounds (startup must not block); the admission invariant holds for
	// everything after it, so the excess drains and stays drained.
	for _, j := range pending {
		tenant := j.TenantName()
		m.tenantSeries(tenant)
		m.sched.enqueueForce(tenant, j)
	}

	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m, nil
}

// restore folds the replayed job table into the manager and returns the
// jobs that need to run (again). Recovery dispositions: terminal jobs
// are kept as the record of record; queued jobs re-enqueue; running and
// interrupted jobs — cut short by the crash being recovered from — are
// re-enqueued as interrupted unless their attempt budget is exhausted,
// in which case they finalize failed rather than crash-loop.
func (m *Manager) restore(st *replayState) []*Job {
	m.nextID = st.nextID
	var pending []*Job
	for _, id := range st.order {
		rec := st.jobs[id]
		ctx, cancel := context.WithCancel(context.Background())
		j := &Job{
			id:        rec.ID,
			req:       rec.Req,
			ctx:       ctx,
			cancel:    cancel,
			done:      make(chan struct{}),
			state:     rec.State,
			err:       rec.Err,
			cacheHit:  rec.CacheHit,
			result:    rec.Result,
			attempt:   rec.Attempt,
			submitted: rec.Submitted,
			started:   rec.Started,
			finished:  rec.Finished,
			timeline:  rec.Timeline,
		}
		if len(j.timeline) == 0 {
			// Pre-timeline durable state (old snapshot, old journal):
			// synthesize the coarse lifecycle from the timestamps so
			// the API contract holds for jobs that predate the field.
			j.timeline = appendTimeline(nil, string(StateQueued), rec.Submitted)
			if !rec.Started.IsZero() {
				j.timeline = appendTimeline(j.timeline, string(StateRunning), rec.Started)
			}
			if rec.State.Terminal() && !rec.Finished.IsZero() {
				j.timeline = appendTimeline(j.timeline, string(rec.State), rec.Finished)
			}
		}
		switch {
		case rec.State.Terminal():
			cancel()
			close(j.done)
		case rec.State == StateRunning || rec.State == StateInterrupted:
			if rec.Attempt >= m.cfg.MaxAttempts {
				j.state = StateFailed
				j.err = fmt.Sprintf("serve: job interrupted by crash on attempt %d of %d; not retrying", rec.Attempt, m.cfg.MaxAttempts)
				j.finished = time.Now()
				j.timeline = appendTimeline(j.timeline, string(StateFailed), j.finished)
				cancel()
				close(j.done)
				m.metrics.recoveredFailed.Add(1)
				m.metrics.jobCompleted(StateFailed)
				m.cfg.Logf("serve: job %s recovered as failed (%s)", j.id, j.err)
			} else {
				j.state = StateInterrupted
				pending = append(pending, j)
				m.metrics.recoveredRequeue.Add(1)
				m.cfg.Logf("serve: job %s recovered as interrupted (attempt %d), re-queued", j.id, rec.Attempt)
			}
		default: // queued
			pending = append(pending, j)
			m.metrics.recoveredRequeue.Add(1)
			m.cfg.Logf("serve: job %s recovered as queued, re-queued", j.id)
		}
		m.jobs[j.id] = j
		m.order = append(m.order, j.id)
	}
	if dropped := st.droppedBytes; dropped > 0 {
		m.cfg.Logf("serve: recovery dropped %d corrupt journal bytes", dropped)
	}
	return pending
}

// snapshotNow captures the current job table for compaction.
func (m *Manager) snapshotNow() snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	snap := snapshot{NextID: m.nextID, Epoch: m.epoch}
	for _, id := range m.order {
		j := m.jobs[id]
		j.mu.Lock()
		snap.Jobs = append(snap.Jobs, jobRecord{
			ID:        j.id,
			Req:       j.req,
			State:     j.state,
			Err:       j.err,
			Attempt:   j.attempt,
			CacheHit:  j.cacheHit,
			Submitted: j.submitted,
			Started:   j.started,
			Finished:  j.finished,
			Timeline:  append([]TimelineEntry(nil), j.timeline...),
			Result:    j.result,
		})
		j.mu.Unlock()
	}
	return snap
}

// registerGauges attaches the manager-owned gauges and the build-info
// constant to the metrics registry. Order matters for the golden
// byte-compat test: the pre-obs gauge block first, new families after.
func (m *Manager) registerGauges() {
	r := m.metrics.Registry()
	for _, s := range []State{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled, StateInterrupted} {
		s := s
		r.GaugeFunc("mupod_jobs", "Jobs currently known, by state.", func() float64 {
			return float64(m.CountStates()[s])
		}, "state", string(s))
	}
	r.GaugeFunc("mupod_queue_depth", "Jobs waiting for a worker.", func() float64 {
		return float64(m.QueueDepth())
	})
	r.GaugeFunc("mupod_workers", "Configured worker pool size.", func() float64 {
		return float64(m.Workers())
	})
	r.GaugeFunc("mupod_profile_cache_entries", "Profiles currently cached.", func() float64 {
		return float64(m.CacheLen())
	})
	r.GaugeFunc("mupod_profile_cache_bytes", "Estimated bytes held by cached profiles.", func() float64 {
		return float64(m.CachedBytes())
	})
	module := "mupod"
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Path != "" {
		module = bi.Main.Path
	}
	r.GaugeFunc("mupod_build_info", "Build information; value is always 1.", func() float64 { return 1 },
		"go_version", runtime.Version(), "module", module)
}

// Metrics exposes the counter registry (shared with the HTTP layer).
func (m *Manager) Metrics() *Metrics { return m.metrics }

// tenantSeries resolves a tenant's metric series, wiring its queue-
// depth gauge to the scheduler on first sight.
func (m *Manager) tenantSeries(name string) *tenantSeries {
	return m.metrics.tenant(name, func() float64 {
		return float64(m.sched.TenantDepth(name))
	})
}

// CacheLen returns the number of cached profiles.
func (m *Manager) CacheLen() int { return m.cache.Len() }

// CachedBytes returns the estimated bytes held by cached profiles.
func (m *Manager) CachedBytes() int64 { return m.cache.CachedBytes() }

// QueueDepth returns the number of jobs waiting for a worker (including
// admissions mid-flight between their capacity check and enqueue).
func (m *Manager) QueueDepth() int { return m.sched.Len() }

// TenantQueueDepth returns one tenant's share of the queue.
func (m *Manager) TenantQueueDepth(tenant string) int { return m.sched.TenantDepth(tenant) }

// Workers returns the configured worker count.
func (m *Manager) Workers() int { return m.cfg.Workers }

// Draining reports whether Shutdown has begun.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// RetryAfter estimates (in whole seconds, clamped to [1, 300]) how long
// a shed client should wait before resubmitting: the smoothed job
// duration times the queue position a new job would take — jobs already
// running plus jobs waiting plus itself — spread across the worker
// pool. Counting the in-flight jobs matters at saturation: every worker
// holds a job that still needs up to a full service time, so ignoring
// them undershoots by Workers × ewmaJobSecs. Before any job has
// finished it assumes 5s per job.
func (m *Manager) RetryAfter() int {
	m.mu.Lock()
	perJob := m.ewmaJobSecs
	m.mu.Unlock()
	if perJob <= 0 {
		perJob = 5
	}
	ahead := m.sched.Len() + int(m.inflight.Load())
	secs := int(math.Ceil(perJob * float64(ahead+1) / float64(m.cfg.Workers)))
	if secs < 1 {
		secs = 1
	}
	if secs > 300 {
		secs = 300
	}
	return secs
}

func (m *Manager) noteJobSecs(s float64) {
	m.mu.Lock()
	if m.ewmaJobSecs == 0 {
		m.ewmaJobSecs = s
	} else {
		m.ewmaJobSecs = 0.7*m.ewmaJobSecs + 0.3*s
	}
	m.mu.Unlock()
}

// Submit validates the request and enqueues a new job. It never blocks:
// a saturated queue sheds with ErrQueueFull, a tenant over its quota
// with ErrTenantQuota (the HTTP layer turns both into 429 +
// Retry-After), a draining manager rejects with ErrDraining. With a
// DataDir the submission is journaled before Submit returns, so an
// accepted job survives a crash.
func (m *Manager) Submit(req JobRequest) (*Job, error) {
	res := m.SubmitBatch([]JobRequest{req})[0]
	return res.Job, res.Err
}

// BatchResult is one item's outcome from SubmitBatch: the accepted job,
// or the error that rejected it.
type BatchResult struct {
	Job *Job
	Err error
}

// SubmitBatch admits many requests in one shot. Items are validated and
// admitted independently (partial accept: a full queue or an exhausted
// tenant quota sheds the item, not the batch), but every accepted item
// is journaled in a single batched append — one fsync for the whole
// batch — before any of them becomes visible to a worker. The result
// slice is parallel to reqs.
func (m *Manager) SubmitBatch(reqs []JobRequest) []BatchResult {
	out := make([]BatchResult, len(reqs))
	now := time.Now()

	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		for i := range out {
			out[i].Err = ErrDraining
			m.metrics.rejected.Add(1)
		}
		return out
	}
	// Admission is checked per item under the manager lock (rather than
	// a select-send) so an accept cannot race Shutdown closing the
	// scheduler, and so every path — single submit, batch item, retry
	// re-queue — shares one invariant: scheduler occupancy, counting
	// reservations, stays within QueueDepth and the per-tenant quota.
	var accepted []*Job
	var recs []journalRec
	for i := range reqs {
		req := reqs[i]
		if err := req.Validate(); err != nil {
			out[i].Err = err
			continue
		}
		tenant := req.TenantName()
		if err := m.sched.reserve(tenant); err != nil {
			out[i].Err = err
			m.metrics.rejected.Add(1)
			m.metrics.shed.Add(1)
			m.tenantSeries(tenant).shed.Inc()
			continue
		}
		ctx, cancel := context.WithCancel(context.Background())
		j := &Job{
			req:       req,
			ctx:       ctx,
			cancel:    cancel,
			done:      make(chan struct{}),
			state:     StateQueued,
			submitted: now,
		}
		j.timeline = appendTimeline(nil, string(StateQueued), now)
		m.nextID++
		j.id = m.idPrefix + fmt.Sprintf("j-%06d", m.nextID)
		m.jobs[j.id] = j
		m.order = append(m.order, j.id)
		recs = append(recs, journalRec{T: "submit", ID: j.id, Time: now, Req: &j.req})
		accepted = append(accepted, j)
		out[i].Job = j
	}
	// Journal before the enqueues: once a worker can see a job, its
	// submit record is already durable, so no later record can refer to
	// a job the journal has never heard of.
	m.journal.appendBatch(recs)
	for _, j := range accepted {
		m.sched.enqueue(j.TenantName(), j)
	}
	m.mu.Unlock()

	for _, j := range accepted {
		m.metrics.submitted.Add(1)
		m.tenantSeries(j.TenantName()).jobs.Inc()
		if c := m.clusterHook(); c != nil {
			c.noteAdmitted(j)
		}
		m.cfg.Logf("serve: job %s queued (tenant=%q model=%q netdesc=%dB objective=%q)",
			j.id, j.TenantName(), j.req.Model, len(j.req.Network), j.req.Objective)
	}
	return out
}

// Readmit admits a job under an existing cluster-wide ID — the
// receiving side of both the dead-peer handoff and the drain handoff.
// The job arrives as StateInterrupted carrying its prior attempt count,
// so the worker resumes it under the same attempt budget a local crash
// recovery would grant; a count already at MaxAttempts finalizes as
// failed instead of looping. Admission passes the same reserve() gate
// as Submit (full queues and tenant quotas shed handoffs too), and an
// already-known ID returns the existing job, so a retried handoff can
// never double-admit.
func (m *Manager) Readmit(id string, req JobRequest, attempt int) (*Job, error) {
	if id == "" {
		return nil, errors.New("serve: readmit needs a job ID")
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if attempt < 0 {
		attempt = 0
	}
	now := time.Now()
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil, ErrDraining
	}
	if j, ok := m.jobs[id]; ok {
		m.mu.Unlock()
		return j, nil
	}
	tenant := req.TenantName()
	if err := m.sched.reserve(tenant); err != nil {
		m.mu.Unlock()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		id:        id,
		req:       req,
		ctx:       ctx,
		cancel:    cancel,
		done:      make(chan struct{}),
		state:     StateInterrupted,
		attempt:   attempt,
		submitted: now,
	}
	j.timeline = appendTimeline(nil, string(StateQueued), now)
	j.timeline = appendTimeline(j.timeline, string(StateInterrupted), now)
	m.jobs[id] = j
	m.order = append(m.order, id)
	m.journal.appendBatch([]journalRec{
		{T: "submit", ID: id, Time: now, Req: &j.req},
		{T: "state", ID: id, Time: now, State: StateInterrupted, Attempt: attempt},
	})
	if attempt >= m.cfg.MaxAttempts {
		m.sched.unreserve(tenant)
		m.mu.Unlock()
		m.finalize(j, StateFailed, nil, false,
			fmt.Errorf("serve: job interrupted %d times elsewhere, attempt budget (%d) exhausted", attempt, m.cfg.MaxAttempts))
		return j, nil
	}
	m.sched.enqueue(tenant, j)
	m.mu.Unlock()

	if c := m.clusterHook(); c != nil {
		c.noteAdmitted(j)
	}
	m.cfg.Logf("serve: job %s re-admitted (tenant=%q attempt=%d)", id, tenant, attempt)
	return j, nil
}

// Get returns the job with the given ID.
func (m *Manager) Get(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, ErrUnknownJob
	}
	return j, nil
}

// Jobs returns every known job in submission order.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id])
	}
	return out
}

// JobsByTenant returns the tenant's jobs in submission order ("" means
// every job, like Jobs).
func (m *Manager) JobsByTenant(tenant string) []*Job {
	if tenant == "" {
		return m.Jobs()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []*Job
	for _, id := range m.order {
		if j := m.jobs[id]; j.TenantName() == tenant {
			out = append(out, j)
		}
	}
	return out
}

// CountStates tallies jobs by state (the /metrics gauge source).
func (m *Manager) CountStates() map[State]int {
	counts := make(map[State]int, 6)
	for _, j := range m.Jobs() {
		counts[j.State()]++
	}
	return counts
}

// Cancel requests cancellation of a job. A queued (or crash-recovered
// interrupted) job flips to cancelled immediately; a running job has
// its context cancelled and reaches StateCancelled as soon as the
// pipeline observes it; an interrupted job waiting out its backoff is
// finalized by the retry goroutine. Cancelling a terminal job is a
// no-op.
func (m *Manager) Cancel(id string) (*Job, error) {
	j, err := m.Get(id)
	if err != nil {
		return nil, err
	}
	j.mu.Lock()
	switch {
	case j.state == StateQueued, j.state == StateInterrupted && !j.retryWait:
		j.mu.Unlock()
		j.cancel()
		m.finalize(j, StateCancelled, nil, false, nil)
		m.cfg.Logf("serve: job %s cancelled while waiting", id)
	case j.state == StateRunning, j.state == StateInterrupted:
		j.mu.Unlock()
		j.cancel() // the worker (or retry goroutine) finishes the transition
		m.cfg.Logf("serve: job %s cancellation requested", id)
	default: // terminal: idempotent no-op
		j.mu.Unlock()
	}
	return j, nil
}

// Shutdown drains the manager: new submissions are rejected, workers
// finish the queued and running jobs, interrupted jobs waiting out a
// backoff fail fast instead of retrying, and the call returns when the
// pool has exited. If ctx expires first, every outstanding job is
// cancelled and Shutdown waits for the (now fast) pool exit before
// returning ctx's error.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return errors.New("serve: already shut down")
	}
	m.draining = true
	close(m.drainc)
	m.sched.close()
	m.mu.Unlock()

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		m.retryWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		for _, j := range m.Jobs() {
			if !j.State().Terminal() {
				j.cancel()
			}
		}
		<-done
		err = ctx.Err()
	}
	m.journal.Close()
	if c := m.clusterPtr.Load(); c != nil {
		c.Stop()
	}
	return err
}

// Crash simulates kill -9 for chaos tests: the journal stops accepting
// appends first (everything after this instant is as lost as it would
// be in a real crash), then outstanding work is abandoned. In cluster
// mode the replication hooks go silent at the same instant — a crashed
// node sends no tombstones, so its peers' ownership records survive to
// drive the handoff. The manager is unusable afterwards; recovery is
// New with the same DataDir.
func (m *Manager) Crash() {
	m.crashed.Store(true)
	m.journal.Close()
	m.mu.Lock()
	if !m.draining {
		m.draining = true
		close(m.drainc)
		m.sched.close()
	}
	m.mu.Unlock()
	for _, j := range m.Jobs() {
		if !j.State().Terminal() {
			j.cancel()
		}
	}
	m.wg.Wait()
	m.retryWG.Wait()
	if c := m.clusterPtr.Load(); c != nil {
		c.Stop()
	}
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		j, ok := m.sched.next()
		if !ok {
			return
		}
		m.runJob(j)
	}
}

// stageCtx derives the per-stage context.
func (m *Manager) stageCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if m.cfg.StageTimeout > 0 {
		return context.WithTimeout(ctx, m.cfg.StageTimeout)
	}
	return context.WithCancel(ctx)
}

func (m *Manager) runJob(j *Job) {
	j.mu.Lock()
	if j.state != StateQueued && j.state != StateInterrupted { // cancelled while waiting
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	j.attempt++
	attempt := j.attempt
	started := j.started
	j.timeline = appendTimeline(j.timeline, string(StateRunning), started)
	j.mu.Unlock()
	m.inflight.Add(1)
	defer m.inflight.Add(-1)
	// The journal record reuses the timeline timestamp so a replayed
	// timeline is bit-identical to the live one.
	m.journal.append(journalRec{T: "state", ID: j.id, Time: started, State: StateRunning, Attempt: attempt})
	if c := m.clusterHook(); c != nil {
		c.noteAttempt(j, attempt)
	}
	m.cfg.Logf("serve: job %s running (attempt %d)", j.id, attempt)

	ctx := j.ctx
	if m.cfg.TraceSpans >= 0 {
		tr := obs.NewTracer(m.cfg.TraceSpans)
		j.setTracer(tr)
		ctx = obs.WithTracer(ctx, tr)
	}
	ctx, jsp := obs.Start(ctx, "job", obs.KV("id", j.id))
	res, cacheHit, err := m.executeSafe(ctx, j)
	jsp.SetAttr("cache_hit", cacheHit)
	jsp.End()

	switch {
	case err == nil:
		m.finalize(j, StateDone, res, cacheHit, nil)
	case j.ctx.Err() != nil && errors.Is(err, context.Canceled):
		m.finalize(j, StateCancelled, nil, cacheHit, err)
	case fault.IsTransient(err) && attempt < m.cfg.MaxAttempts && !m.Draining():
		m.retryLater(j, attempt, err)
	default:
		m.finalize(j, StateFailed, nil, cacheHit, err)
	}
}

// finalize moves a job to a terminal state exactly once: later calls
// (a cancel racing a worker, a drain racing a retry) are no-ops.
func (m *Manager) finalize(j *Job, final State, res *JobResult, cacheHit bool, cause error) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.state = final
	j.finished = time.Now()
	j.cacheHit = cacheHit
	j.timeline = appendTimeline(j.timeline, string(final), j.finished)
	switch {
	case final == StateDone:
		j.result = res
		j.err = ""
	case final == StateFailed && cause != nil:
		j.err = cause.Error()
	default:
		j.err = ""
	}
	errMsg := j.err
	attempt := j.attempt
	started := j.started
	finished := j.finished
	j.mu.Unlock()

	if final == StateDone && res != nil {
		m.journal.append(journalRec{T: "result", ID: j.id, Time: finished, Result: res})
	}
	m.journal.append(journalRec{T: "state", ID: j.id, Time: finished, State: final, Err: errMsg, Attempt: attempt, CacheHit: cacheHit})
	if c := m.clusterHook(); c != nil {
		c.noteTerminal(j.id)
	}
	j.cancel()
	close(j.done)
	m.metrics.jobCompleted(final)
	switch {
	case final == StateDone:
		m.noteJobSecs(finished.Sub(started).Seconds())
		m.tenantSeries(j.TenantName()).latency.Observe(finished.Sub(started))
		m.cfg.Logf("serve: job %s done in %v (cache hit=%v)", j.id, finished.Sub(started).Round(time.Millisecond), cacheHit)
	case cause != nil:
		m.cfg.Logf("serve: job %s %s: %v", j.id, final, cause)
	default:
		m.cfg.Logf("serve: job %s %s", j.id, final)
	}
}

// retryDelay computes the backoff before the next attempt after the
// given one: min(base·2ⁿ⁻¹, max) with full jitter, so a burst of jobs
// tripping over the same transient fault does not retry in lockstep.
func (m *Manager) retryDelay(attempt int) time.Duration {
	d := m.cfg.RetryBaseDelay
	for i := 1; i < attempt && d < m.cfg.RetryMaxDelay; i++ {
		d *= 2
	}
	if d > m.cfg.RetryMaxDelay {
		d = m.cfg.RetryMaxDelay
	}
	return time.Duration(rand.Int64N(int64(d))) + 1
}

// retryLater parks the job as interrupted and re-queues it after an
// exponential-backoff delay. Cancellation finalizes it cancelled;
// draining finalizes it failed (retrying against a disappearing worker
// pool would strand it).
func (m *Manager) retryLater(j *Job, attempt int, cause error) {
	delay := m.retryDelay(attempt)
	now := time.Now()
	j.mu.Lock()
	j.state = StateInterrupted
	j.err = cause.Error() // visible while parked; cleared on re-queue
	j.retryWait = true
	j.timeline = appendTimeline(j.timeline, string(StateInterrupted), now)
	j.mu.Unlock()
	m.journal.append(journalRec{T: "state", ID: j.id, Time: now, State: StateInterrupted, Err: cause.Error(), Attempt: attempt})
	m.metrics.retries.Add(1)
	m.cfg.Logf("serve: job %s interrupted by transient failure on attempt %d/%d, retrying in %v: %v",
		j.id, attempt, m.cfg.MaxAttempts, delay.Round(time.Millisecond), cause)

	m.retryWG.Add(1)
	go func() {
		defer m.retryWG.Done()
		t := time.NewTimer(delay)
		defer t.Stop()
		for {
			select {
			case <-t.C:
			case <-j.ctx.Done():
				m.finalize(j, StateCancelled, nil, false, nil)
				return
			case <-m.drainc:
				m.finalize(j, StateFailed, nil, false, fmt.Errorf("manager draining before retry: %w", cause))
				return
			}
			m.mu.Lock()
			if m.draining {
				m.mu.Unlock()
				m.finalize(j, StateFailed, nil, false, fmt.Errorf("manager draining before retry: %w", cause))
				return
			}
			// Re-admission goes through the same reservation as Submit:
			// a retried job counts against QueueDepth (and its tenant's
			// quota) like any other, so retries cannot re-enter above
			// the configured bound — not even while a recovery backlog
			// larger than QueueDepth is still draining.
			tenant := j.TenantName()
			if m.sched.reserve(tenant) == nil {
				j.mu.Lock()
				if j.state != StateInterrupted { // finalized while parked
					j.mu.Unlock()
					m.sched.unreserve(tenant)
					m.mu.Unlock()
					return
				}
				requeued := time.Now()
				j.state = StateQueued
				j.retryWait = false
				j.err = ""
				j.timeline = appendTimeline(j.timeline, string(StateQueued), requeued)
				j.mu.Unlock()
				m.journal.append(journalRec{T: "state", ID: j.id, Time: requeued, State: StateQueued, Attempt: attempt})
				m.sched.enqueue(tenant, j)
				m.mu.Unlock()
				return
			}
			m.mu.Unlock()
			t.Reset(m.retryDelay(attempt)) // queue (or tenant quota) full: back off again
		}
	}()
}

// noteStage records a finished pipeline stage on the job's timeline and
// journals it, so the stage-by-stage breakdown survives a restart.
func (m *Manager) noteStage(j *Job, event string) {
	now := time.Now()
	j.note(event, now)
	m.journal.append(journalRec{T: "stage", ID: j.id, Time: now, Event: event})
}

// executeSafe contains panics (a panic-mode failpoint, or a pipeline
// bug) to the job that hit them: the worker survives and the job fails
// with the panic value.
func (m *Manager) executeSafe(ctx context.Context, j *Job) (res *JobResult, cacheHit bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("serve: job panicked: %v\n%s", r, debug.Stack())
		}
	}()
	return m.execute(ctx, j)
}

// execute runs the four pipeline stages under per-stage deadlines,
// sharing profiles through the content-addressed cache. Each finished
// stage lands on the job's timeline (and in the journal).
func (m *Manager) execute(ctx context.Context, j *Job) (*JobResult, bool, error) {
	req := &j.req
	cfg, err := req.coreConfig()
	if err != nil {
		return nil, false, err
	}
	// Fan the per-job worker budget into the stages run directly below
	// (execute calls profile/search itself, bypassing core's fan-out).
	if cfg.Workers == 0 {
		cfg.Workers = m.cfg.JobWorkers
	}
	if cfg.Profile.Workers == 0 {
		cfg.Profile.Workers = cfg.Workers
	}
	if cfg.Search.Workers == 0 {
		cfg.Search.Workers = cfg.Workers
	}
	// Same fan-out for the kernel policy: job-level knob, then the
	// daemon default, reach any stage that did not pick its own.
	if (cfg.Kernel == kernels.Policy{}) {
		cfg.Kernel = m.cfg.Kernel
	}
	if (cfg.Profile.Kernel == kernels.Policy{}) {
		cfg.Profile.Kernel = cfg.Kernel
	}
	if (cfg.Search.Kernel == kernels.Policy{}) {
		cfg.Search.Kernel = cfg.Kernel
	}

	t0 := time.Now()
	sctx, cancel := m.stageCtx(ctx)
	rctx, rsp := obs.Start(sctx, "resolve",
		obs.KV("model", req.Model), obs.KV("netdesc_bytes", len(req.Network)))
	var (
		net *nn.Network
		ds  *dataset.Dataset
	)
	if err = fault.Hit(rctx, "serve.resolve"); err == nil {
		net, ds, err = m.cfg.Resolver(rctx, req)
	}
	rsp.End()
	cancel()
	resolveTime := time.Since(t0)
	m.metrics.ObserveStage(StageResolve, resolveTime)
	if err != nil {
		return nil, false, fmt.Errorf("resolve: %w", err)
	}
	m.noteStage(j, StageResolve)

	t0 = time.Now()
	key := ProfileKey(net, ds, cfg.Profile)
	sctx, cancel = m.stageCtx(ctx)
	prof, cacheHit, err := m.cache.GetOrCompute(sctx, key, func(cctx context.Context) (*profile.Profile, error) {
		// The breaker guards only the expensive compute path: cache
		// hits are served even while it is open.
		if berr := m.breaker.Allow(); berr != nil {
			return nil, berr
		}
		p, perr := profile.RunContext(cctx, net, ds, cfg.Profile)
		m.breaker.Record(cctx, perr)
		return p, perr
	})
	cancel()
	profileTime := time.Since(t0)
	m.metrics.ObserveStage(StageProfile, profileTime)
	if err != nil {
		return nil, false, fmt.Errorf("profile: %w", err)
	}
	m.noteStage(j, StageProfile)
	if cacheHit {
		m.metrics.cacheHits.Add(1)
	} else {
		m.metrics.cacheMisses.Add(1)
	}

	t0 = time.Now()
	sctx, cancel = m.stageCtx(ctx)
	sr, err := search.RunContext(sctx, net, prof, ds, cfg.Search)
	cancel()
	searchTime := time.Since(t0)
	m.metrics.ObserveStage(StageSearch, searchTime)
	if err != nil {
		return nil, false, err
	}
	m.noteStage(j, StageSearch)

	if req.Pareto != nil {
		// Pareto-front job: the front replaces the single-objective ξ
		// solve. The front cache keys on (profile key, search options,
		// spec), so a repeated submission skips the whole search.
		t0 = time.Now()
		sctx, cancel = m.stageCtx(ctx)
		fkey := FrontKey(key, cfg.Search, *req.Pareto, cfg.DeltaFloor)
		pres, fhit, err := m.fronts.getOrCompute(sctx, fkey, func(cctx context.Context) (*ParetoResult, error) {
			return computePareto(cctx, prof, sr.SigmaYL, *req.Pareto, cfg.DeltaFloor, cfg.Workers)
		})
		cancel()
		paretoTime := time.Since(t0)
		m.metrics.ObservePareto(paretoTime)
		if err != nil {
			return nil, false, fmt.Errorf("pareto: %w", err)
		}
		m.noteStage(j, "pareto")
		if fhit {
			m.metrics.frontCacheHits.Add(1)
		} else {
			m.metrics.frontCacheMisses.Add(1)
		}
		out := *pres // per-job copy; the cached value stays pristine
		out.FrontCacheHit = fhit
		return &JobResult{
			NetName:         net.Name,
			Objective:       "pareto",
			SigmaYL:         sr.SigmaYL,
			GuardedSigma:    sr.SigmaYL,
			ExactAccuracy:   sr.ExactAccuracy,
			TargetAccuracy:  sr.TargetAcc,
			Evaluations:     sr.Evaluations,
			Trace:           sr.Trace,
			ProfileCacheHit: cacheHit,
			ResolveMS:       1000 * resolveTime.Seconds(),
			ProfileMS:       1000 * profileTime.Seconds(),
			SearchMS:        1000 * searchTime.Seconds(),
			Pareto:          &out,
			ParetoMS:        1000 * paretoTime.Seconds(),
		}, cacheHit, nil
	}

	t0 = time.Now()
	sctx, cancel = m.stageCtx(ctx)
	alloc, sigma, retries, err := core.AllocateContext(sctx, net, ds, prof, sr, cfg)
	cancel()
	solveTime := time.Since(t0)
	m.metrics.ObserveStage(StageSolve, solveTime)
	if err != nil {
		return nil, false, err
	}
	m.noteStage(j, StageSolve)

	res := &JobResult{
		NetName:            net.Name,
		Objective:          cfg.Objective.String(),
		SigmaYL:            sr.SigmaYL,
		GuardedSigma:       sigma,
		GuardRetries:       retries,
		ExactAccuracy:      sr.ExactAccuracy,
		TargetAccuracy:     sr.TargetAcc,
		Evaluations:        sr.Evaluations,
		Trace:              sr.Trace,
		Bits:               alloc.Bits(),
		EffectiveInputBits: alloc.EffectiveInputBits(),
		EffectiveMACBits:   alloc.EffectiveMACBits(),
		ProfileCacheHit:    cacheHit,
		ResolveMS:          1000 * resolveTime.Seconds(),
		ProfileMS:          1000 * profileTime.Seconds(),
		SearchMS:           1000 * searchTime.Seconds(),
		SolveMS:            1000 * solveTime.Seconds(),
	}
	for _, l := range alloc.Layers {
		res.Layers = append(res.Layers, LayerResult{
			Name:     l.Name,
			Xi:       l.Xi,
			Delta:    l.Delta,
			Format:   l.Format.String(),
			IntBits:  l.Format.IntBits,
			FracBits: l.Format.FracBits,
			Bits:     l.Bits,
			Inputs:   l.Inputs,
			MACs:     l.MACs,
		})
	}
	return res, cacheHit, nil
}
