// Command reusetoold runs the reuse-distance analysis as a long-lived
// HTTP service (see internal/server): POST /v1/analyze accepts .loop
// source, a built-in workload name, or a saved persist stream; jobs run
// on a bounded worker pool and results are served from a
// content-addressed cache on resubmission.
//
// With -coordinator and -peers, the daemon instead fronts a fleet of
// worker daemons (see internal/cluster): jobs are sharded across the
// workers by their content-addressed cache key over a consistent-hash
// ring, dead workers are probed out of the ring, and their jobs are
// re-routed. Workers themselves can share a cache daemon with
// -remote-cache, so any node's result warms the whole fleet.
//
// The daemon drains gracefully on SIGINT/SIGTERM: intake stops
// (healthz reports "draining"), in-flight jobs finish (bounded by
// -drain-timeout), then the HTTP listener shuts down.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"reusetool/internal/cluster"
	"reusetool/internal/server"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout))
}

// drainable is the piece of either role that must flush before exit.
type drainable interface {
	Drain(context.Context) error
}

// run serves until SIGINT or SIGTERM arrives or ctx ends, then drains
// and returns the exit code.
func run(ctx context.Context, args []string, out io.Writer) int {
	fs := flag.NewFlagSet("reusetoold", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		addr         = fs.String("addr", "127.0.0.1:8375", "listen address")
		workers      = fs.Int("workers", 0, "analysis worker-pool size (0 = GOMAXPROCS)")
		queue        = fs.Int("queue", 64, "job queue depth; submissions beyond it get 429")
		jobTimeout   = fs.Duration("job-timeout", 2*time.Minute, "default per-job deadline")
		maxTimeout   = fs.Duration("max-job-timeout", 0, "cap on request-supplied deadlines (0 = job-timeout)")
		cacheEntries = fs.Int("cache-entries", 128, "in-memory result-cache capacity")
		cacheDir     = fs.String("cache-dir", "", "directory for the on-disk result cache (empty = memory only)")
		remoteCache  = fs.String("remote-cache", "", "base URL of a shared cache daemon (empty = no remote tier)")
		wbDepth      = fs.Int("write-behind-depth", 64, "queue depth for async writes to the remote cache tier")
		simLatency   = fs.Duration("simulate-latency", 0, "synthetic per-job latency for load drills (0 = off)")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight jobs")

		coordinator   = fs.Bool("coordinator", false, "run as a cluster coordinator instead of a worker")
		peers         = fs.String("peers", "", "comma-separated worker base URLs (coordinator mode)")
		probeInterval = fs.Duration("probe-interval", 2*time.Second, "worker health-probe interval (coordinator mode)")
		pollInterval  = fs.Duration("poll-interval", 50*time.Millisecond, "job poll pacing on workers (coordinator mode)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	logger := log.New(out, "reusetoold: ", log.LstdFlags)
	var handler http.Handler
	var drainer drainable
	var stopBackground context.CancelFunc = func() {}

	if *coordinator {
		var peerList []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
		coord, err := cluster.New(cluster.Config{
			Peers:         peerList,
			ProbeInterval: *probeInterval,
			PollInterval:  *pollInterval,
		})
		if err != nil {
			logger.Printf("startup: %v", err)
			return 1
		}
		proberCtx, cancel := context.WithCancel(ctx)
		coord.Start(proberCtx)
		stopBackground = cancel
		handler = coord.Handler()
		drainer = coord
		logger.Printf("coordinator over %d workers: %s", len(peerList), strings.Join(peerList, ", "))
	} else {
		srv, err := server.New(server.Config{
			Workers:          *workers,
			QueueDepth:       *queue,
			JobTimeout:       *jobTimeout,
			MaxJobTimeout:    *maxTimeout,
			CacheEntries:     *cacheEntries,
			CacheDir:         *cacheDir,
			RemoteCache:      *remoteCache,
			WriteBehindDepth: *wbDepth,
			SimulateLatency:  *simLatency,
		})
		if err != nil {
			logger.Printf("startup: %v", err)
			return 1
		}
		handler = srv.Handler()
		drainer = srv
	}
	defer stopBackground()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Printf("listen: %v", err)
		return 1
	}
	httpSrv := &http.Server{Handler: handler}
	if *coordinator {
		logger.Printf("listening on http://%s (coordinator)", ln.Addr())
	} else {
		logger.Printf("listening on http://%s (workers=%d queue=%d cache=%d dir=%q remote=%q)",
			ln.Addr(), *workers, *queue, *cacheEntries, *cacheDir, *remoteCache)
	}
	// The resolved address on its own line lets scripts (and the CI
	// smoke test) scrape the port when -addr ends in :0.
	fmt.Fprintf(out, "reusetoold-addr %s\n", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sigCtx, stop := signal.NotifyContext(ctx, syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	select {
	case <-sigCtx.Done():
	case err := <-serveErr:
		logger.Printf("serve: %v", err)
		return 1
	}
	stop() // a second signal kills immediately instead of waiting for drain

	logger.Printf("shutdown: draining (timeout %s)", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), *drainTimeout)
	defer cancel()
	code := 0
	if err := drainer.Drain(drainCtx); err != nil {
		logger.Printf("drain: %v (stragglers canceled)", err)
		code = 1
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Printf("http shutdown: %v", err)
		code = 1
	}
	logger.Printf("shutdown: done")
	return code
}
