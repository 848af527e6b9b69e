// Command mupodd is the precision-optimization daemon: it serves the
// full MUPOD pipeline (profile → σ search → ξ solve → allocation) over
// HTTP as asynchronous jobs, drained by a worker pool, with a
// content-addressed profile cache so repeated optimizations of the same
// network skip the expensive error-injection profiling. With -data-dir
// the job table is durable: submissions, state transitions and results
// are journaled, and a restart (even kill -9) replays the journal and
// re-runs whatever had not finished.
//
// Usage:
//
//	mupodd [-addr :8080] [-workers 2] [-queue 64] [-job-workers 0]
//	       [-tenant-weights a:2,b:1] [-tenant-quota 0]
//	       [-intra-workers 0]
//	       [-stage-timeout 10m] [-drain-timeout 30s] [-cache 64]
//	       [-data-dir dir] [-max-attempts 3]
//	       [-node a -peers a=http://h1:8080,b=http://h2:8080]
//	       [-heartbeat-interval 1s] [-suspect-after 2] [-dead-after 5]
//	       [-forward-timeout 10s]
//	       [-http-read-header-timeout 10s] [-http-read-timeout 1m]
//	       [-http-write-timeout 5m] [-http-idle-timeout 2m]
//	       [-log level[,format]] [-trace-spans 8192]
//
// With -node and -peers the daemon joins a static cluster: submissions
// are forwarded to the consistent-hash owner of their routing key,
// heartbeats track peer liveness (/cluster/health), and each node
// replicates lightweight job-ownership records to a ring successor so a
// dead peer's unfinished jobs are re-admitted by the survivors. A
// single-entry -peers list (just this node) behaves exactly like no
// cluster at all. On SIGTERM the node first hands its still-queued jobs
// to live owners, then drains what remains locally.
//
// API:
//
//	POST   /v1/jobs       {"model":"alexnet","objective":"mac",...} → job ID
//	                      (429 + Retry-After when the queue is saturated;
//	                      X-Mupod-Tenant or a "tenant" field attributes
//	                      the job for quotas and weighted-fair scheduling)
//	POST   /v1/jobs:batch {"jobs":[...]} → per-item results, one journal
//	                      fsync for the whole batch, partial accept
//	GET    /v1/jobs/{id}  job state + result + stage timeline
//	DELETE /v1/jobs/{id}  cancel
//	GET    /healthz       liveness (always 200 while the process serves)
//	GET    /readyz        readiness (503 + reasons while draining,
//	                      queue-saturated, or the profile breaker is open)
//	GET    /metrics       Prometheus text format
//	GET    /debug/trace/{id}  Chrome trace of a finished job
//	GET    /debug/pprof/  runtime profiles
//
// Fault injection for chaos drills is armed via MUPOD_FAILPOINTS (see
// internal/fault). See the README's "Serving", "Observability" and
// "Operations" sections for curl walkthroughs.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"mupod/internal/cluster"
	"mupod/internal/fault"
	"mupod/internal/kernels"
	"mupod/internal/obs"
	"mupod/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	workers := flag.Int("workers", 2, "pipeline worker pool size")
	queue := flag.Int("queue", 64, "job queue depth (submissions beyond it are shed with 429)")
	tenantWeights := flag.String("tenant-weights", "", "deficit-round-robin tenant weights, e.g. a:2,b:1 (unlisted tenants weigh 1)")
	tenantQuota := flag.Int("tenant-quota", 0, "max queued jobs per tenant (0 = only the global -queue bound)")
	stageTimeout := flag.Duration("stage-timeout", 10*time.Minute, "per-stage timeout (0 disables)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget before in-flight jobs are cancelled")
	cacheEntries := flag.Int("cache", 64, "profile cache capacity (entries)")
	cacheBytes := flag.Int64("cache-bytes", 0, "profile cache byte budget (0 = unlimited)")
	jobWorkers := flag.Int("job-workers", 0, "default per-job evaluation parallelism (0 = GOMAXPROCS divided across the worker pool)")
	intraWorkers := flag.Int("intra-workers", 0, "default goroutines one layer's kernels shard across, for jobs that set none (0 or 1 = serial)")
	dataDir := flag.String("data-dir", "", "directory for the durable job store (empty = in-memory only; jobs are lost on restart)")
	maxAttempts := flag.Int("max-attempts", 3, "run attempts per job across transient failures and crash recoveries")
	nodeName := flag.String("node", "", "this node's name in the cluster (required with -peers)")
	peersSpec := flag.String("peers", "", "static cluster members as name=url,name=url (empty = single-node)")
	heartbeatInterval := flag.Duration("heartbeat-interval", time.Second, "cluster heartbeat probe interval")
	suspectAfter := flag.Int("suspect-after", 2, "consecutive missed heartbeats before a peer is suspect")
	deadAfter := flag.Int("dead-after", 5, "consecutive missed heartbeats before a peer is dead (triggers job handoff)")
	forwardTimeout := flag.Duration("forward-timeout", 10*time.Second, "per-attempt timeout for forwarding a submission to its owner node")
	readHeaderTimeout := flag.Duration("http-read-header-timeout", 10*time.Second, "time to read request headers (slowloris hardening)")
	readTimeout := flag.Duration("http-read-timeout", time.Minute, "time to read a full request")
	writeTimeout := flag.Duration("http-write-timeout", 5*time.Minute, "time to write a full response")
	idleTimeout := flag.Duration("http-idle-timeout", 2*time.Minute, "keep-alive idle connection timeout")
	logSpec := flag.String("log", "", "log level[,format]: debug|info|warn|error, text|json (default $MUPOD_LOG or info,text)")
	traceSpans := flag.Int("trace-spans", 0, "per-job trace buffer cap in spans (0 = default, negative disables /debug/trace)")
	flag.Parse()

	kpol := kernels.Policy{IntraWorkers: *intraWorkers}
	if err := kpol.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "mupodd: %v\n", err)
		os.Exit(2)
	}
	weights, err := serve.ParseTenantWeights(*tenantWeights)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mupodd: %v\n", err)
		os.Exit(2)
	}
	logger, err := obs.Setup(*logSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mupodd: %v\n", err)
		os.Exit(2)
	}
	if err := fault.InitFromEnv(); err != nil {
		fmt.Fprintf(os.Stderr, "mupodd: %v\n", err)
		os.Exit(2)
	}
	if pts := fault.Armed(); len(pts) > 0 {
		logger.Warn("mupodd: failpoints armed", "points", pts)
	}

	m, err := serve.New(serve.Config{
		Workers:       *workers,
		JobWorkers:    *jobWorkers,
		Kernel:        kpol,
		QueueDepth:    *queue,
		TenantWeights: weights,
		TenantQuota:   *tenantQuota,
		StageTimeout:  *stageTimeout,
		CacheEntries:  *cacheEntries,
		CacheBytes:    *cacheBytes,
		TraceSpans:    *traceSpans,
		DataDir:       *dataDir,
		MaxAttempts:   *maxAttempts,
		Logf: func(format string, args ...any) {
			logger.Info(fmt.Sprintf(format, args...))
		},
	})
	if err != nil {
		logger.Error("mupodd: opening job store", "err", err)
		os.Exit(1)
	}

	var clust *serve.Cluster
	if *peersSpec != "" {
		peers, err := cluster.ParsePeers(*peersSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mupodd: %v\n", err)
			os.Exit(2)
		}
		clust, err = m.EnableCluster(serve.ClusterConfig{
			Self:              *nodeName,
			Peers:             peers,
			HeartbeatInterval: *heartbeatInterval,
			SuspectAfter:      *suspectAfter,
			DeadAfter:         *deadAfter,
			ForwardTimeout:    *forwardTimeout,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "mupodd: %v\n", err)
			os.Exit(2)
		}
		if clust == nil {
			logger.Info("mupodd: -peers names no remote nodes; running single-node")
		}
	} else if *nodeName != "" {
		fmt.Fprintln(os.Stderr, "mupodd: -node requires -peers")
		os.Exit(2)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           serve.NewHandler(m),
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}

	ctx, stop := obs.SignalContext(context.Background())
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("mupodd: listening", "addr", *addr, "workers", *workers, "queue", *queue, "data_dir", *dataDir)

	select {
	case err := <-errc:
		logger.Error("mupodd: serve failed", "err", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	logger.Info("mupodd: signal received, draining", "budget", *drainTimeout)
	shCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// In cluster mode, hand still-queued jobs to live owners while the
	// listener is still up (peers keep probing /cluster/health, which now
	// reports draining, so no new work is forwarded here). Jobs nobody
	// can take drain locally like a single-node shutdown.
	if clust != nil {
		clust.Drain(shCtx)
	}
	// Stop accepting: close the listener first, then drain the job
	// queue so in-flight work finishes.
	if err := srv.Shutdown(shCtx); err != nil {
		logger.Warn("mupodd: http shutdown", "err", err)
	}
	if err := m.Shutdown(shCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("mupodd: drain", "err", err)
	} else if err != nil {
		logger.Warn("mupodd: drain budget exceeded, in-flight jobs cancelled")
	}
	logger.Info("mupodd: bye")
}
