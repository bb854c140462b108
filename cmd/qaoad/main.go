// Command qaoad is the QAOA compilation-as-a-service daemon: it serves the
// compiler behind POST /v1/compile with a compiled-circuit cache,
// singleflight deduplication, admission control with load shedding,
// per-preset circuit breakers, graceful degradation down the VIC→IC→IP→
// NAIVE ladder and graceful drain on SIGINT/SIGTERM. Observability rides
// along on the same listener: Prometheus /metrics (with latency histograms
// and SLO burn-rate gauges), /healthz liveness, /readyz readiness,
// /debug/pprof and the /debug/requests live request inspector; -log emits
// one canonical JSON line per request.
//
// Usage:
//
//	qaoad -listen :8080
//	curl -s localhost:8080/v1/compile -d '{"device_name":"tokyo","circuit":{"n":4,"edges":[[0,1],[1,2],[2,3],[3,0]]},"config":{"policy":"IC"}}'
//
// See README.md ("Compilation as a service") for the full API.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/compile"
	"repro/internal/device"
	"repro/internal/obsv"
	"repro/internal/qaoa"
	"repro/internal/serve"
	"repro/qaoac"
)

func main() {
	var (
		listen       = flag.String("listen", "127.0.0.1:8080", "listen address (\":0\" picks a free port)")
		workers      = flag.Int("workers", 4, "maximum concurrent compile flights")
		queue        = flag.Int("queue", 0, "maximum flights waiting for a worker before shedding (default 4×workers)")
		cacheSize    = flag.Int("cache", 1024, "compiled-circuit LRU cache capacity")
		deadline     = flag.Duration("default-deadline", 30*time.Second, "client wait budget when a request carries no deadline_ms")
		maxDeadline  = flag.Duration("max-deadline", 2*time.Minute, "cap on client-supplied deadlines")
		budget       = flag.Duration("compile-budget", time.Minute, "server-side wall-clock bound per compile flight")
		retries      = flag.Int("retries", 1, "retries per ladder rung on transient compile faults")
		backoff      = flag.Duration("backoff", 5*time.Millisecond, "base backoff between retries")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "how long shutdown waits for in-flight compiles")
		warmup       = flag.Bool("warmup", true, "compile a warm-up circuit on every registered device before reporting ready")
		metricsOut   = flag.String("metrics-out", "", "write a BENCH_*.json metrics report of the serve session to this path on exit")
		rev          = flag.String("rev", "", "revision stamped into the metrics report (default $GITHUB_SHA, then \"dev\")")
		logOut       = flag.String("log", "", "write one canonical JSON log line per request to this file (\"-\" for stderr, empty disables)")
		recent       = flag.Int("recent-requests", 64, "finished requests kept by the /debug/requests inspector ring")
		traceReqs    = flag.Bool("trace-requests", false, "attach a decision-level trace to every compile flight and expose it on /debug/requests (debugging aid, expensive)")
	)
	flag.Parse()
	if err := run(*listen, *workers, *queue, *cacheSize, *deadline, *maxDeadline, *budget,
		*retries, *backoff, *drainTimeout, *warmup, *metricsOut, *rev, *logOut, *recent, *traceReqs); err != nil {
		fmt.Fprintln(os.Stderr, "qaoad:", err)
		os.Exit(1)
	}
}

func run(listen string, workers, queue, cacheSize int, deadline, maxDeadline, budget time.Duration,
	retries int, backoff, drainTimeout time.Duration, warmup bool, metricsOut, rev, logOut string,
	recent int, traceReqs bool) error {
	col := obsv.New()

	logW, closeLog, err := qaoac.OpenLogWriter(logOut)
	if err != nil {
		return err
	}
	defer closeLog()

	srv := serve.New(serve.Config{
		Workers:         workers,
		Queue:           queue,
		CacheSize:       cacheSize,
		DefaultDeadline: deadline,
		MaxDeadline:     maxDeadline,
		CompileBudget:   budget,
		Retries:         retries,
		Backoff:         backoff,
		Obs:             col,
		Log:             obsv.NewLogger(logW),
		RecentRequests:  recent,
		TraceRequests:   traceReqs,
	})

	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return fmt.Errorf("listen %s: %w", listen, err)
	}
	hs := serve.NewHTTPServer(srv.Handler())
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "qaoad: listening on http://%s (not ready: warming up)\n", ln.Addr())

	// Warm-up: one small compilation per registered device, so the first
	// client request never pays for a broken device configuration — a
	// failing warm-up keeps /readyz at 503 and exits. Readiness flips only
	// after this succeeds.
	if warmup {
		if err := warmUp(); err != nil {
			hs.Close()
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	srv.MarkReady()
	fmt.Fprintf(os.Stderr, "qaoad: ready\n")

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-serveErr:
		return fmt.Errorf("serve: %w", err)
	}
	stop()

	// Graceful shutdown: readiness flips to "draining" (so balancers stop
	// routing), new compiles get 503, in-flight flights finish under the
	// drain deadline, then the HTTP server closes idle connections.
	fmt.Fprintf(os.Stderr, "qaoad: draining (timeout %s)\n", drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	drainErr := srv.Drain(dctx)
	hs.Shutdown(dctx)
	srv.Close()
	if drainErr != nil {
		fmt.Fprintln(os.Stderr, "qaoad:", drainErr)
	}

	if metricsOut != "" {
		rep := obsv.NewReport("qaoad", qaoac.RevisionFromEnv(rev), col)
		if err := rep.WriteFile(metricsOut); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "qaoad: metrics written to %s (%d counters)\n", metricsOut, len(rep.Counters))
	}
	return nil
}

// warmUp compiles a 4-node ring on the smallest standard device and binds
// one angle set — the skeleton + bind path every request takes, so
// readiness shows it works and a misconfiguration faults early.
func warmUp() error {
	ps := compile.ParamSpec{N: 4, P: 1, Terms: []compile.WeightedTerm{
		{U: 0, V: 1, Weight: 1}, {U: 1, V: 2, Weight: 1},
		{U: 2, V: 3, Weight: 1}, {U: 0, V: 3, Weight: 1},
	}}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sk, err := compile.CompileSkeletonResilient(ctx, ps, device.Melbourne15(), compile.PresetIC, compile.FallbackOptions{Seed: 1})
	if err != nil {
		return err
	}
	_, err = sk.Bind(qaoa.Params{Gamma: []float64{0.8}, Beta: []float64{0.4}})
	return err
}
