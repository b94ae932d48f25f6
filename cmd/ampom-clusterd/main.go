// Command ampom-clusterd is the long-lived campaign service: an HTTP
// daemon accepting cluster-scenario specs, executing them through the
// campaign engine's bounded worker pool, and persisting every report in a
// content-addressed result store it shares with the batch CLIs.
//
// Usage:
//
//	ampom-clusterd                              # listen on 127.0.0.1:8091, store in ./ampom-results
//	ampom-clusterd -addr :8091 -store /var/lib/ampom   # serve the LAN from a shared store
//	ampom-clusterd -addr 127.0.0.1:0            # ephemeral port (printed on stdout)
//	ampom-clusterd -j 4 -quota 8                # 4 concurrent jobs, 8 active per tenant
//	ampom-clusterd -shards 4                    # shard two-tier runs by default
//
// The daemon announces itself on stdout ("listening on http://…") and
// runs until SIGINT/SIGTERM, then drains: admission stops (503), queued
// and running jobs finish, and every completed report is already durable
// in the store. Submit with `ampom-cluster -server URL` or POST a spec
// JSON to /v1/jobs — see docs/api.md for the full API.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"time"

	"ampom"
	"ampom/internal/cli"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8091", "listen address (host:port; port 0 picks an ephemeral port)")
	storeDir := flag.String("store", "ampom-results", "result store directory (shared with ampom-cluster -store)")
	quota := flag.Int("quota", 0, "per-tenant cap on queued+running jobs (0 = default 16, negative = unlimited)")
	shards := flag.Int("shards", 1, "default event-engine shard count for submissions without ?shards=N")
	drainTimeout := flag.Duration("drain-timeout", time.Minute, "how long shutdown waits for running jobs before giving up")
	cf := cli.AddCampaignFlags(flag.CommandLine)
	flag.Parse()

	if flag.NArg() != 0 {
		cli.Usage("unexpected argument %q", flag.Arg(0))
	}
	if *storeDir == "" {
		cli.Usage("-store needs a directory")
	}
	if *shards < 1 {
		cli.Usage("-shards %d: want a positive shard count", *shards)
	}

	store, err := ampom.OpenResultStore(*storeDir)
	cli.Check(err)
	srv, err := ampom.NewClusterServer(ampom.ClusterServerConfig{
		Store:         store,
		Workers:       cf.Workers,
		BaseSeed:      cf.Seed,
		QuotaJobs:     *quota,
		DefaultShards: *shards,
	})
	cli.Check(err)

	// Catch SIGTERM before announcing the address: a signal sent the moment
	// a client sees the announcement must drain, not kill.
	ctx, stop := cli.SignalContext(context.Background())
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	cli.Check(err)
	fmt.Printf("ampom-clusterd: listening on http://%s (store %s)\n", ln.Addr(), store.Dir())

	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case <-ctx.Done():
	case err := <-serveErr:
		cli.Fail("%v", err)
	}

	// Graceful drain: stop admitting, let queued and running jobs finish
	// (their reports are durable the moment each completes), then close
	// the listener. A second signal kills the process the default way.
	stop()
	fmt.Printf("ampom-clusterd: draining (up to %v)\n", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	exit := cli.CodeOK
	if err := srv.Shutdown(drainCtx); err != nil {
		cli.Errorf("%v", err)
		exit = cli.CodeFail
	}
	if err := hs.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		cli.Errorf("%v", err)
		exit = cli.CodeFail
	}
	cli.Exit(exit)
}
