package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"northstar/internal/experiments"
	"northstar/internal/serve"
)

// cmdServe runs the scenario service: a long-running HTTP/JSON daemon
// evaluating ScenarioSpec requests behind a content-addressed result
// cache (see internal/serve). It blocks until SIGINT/SIGTERM, then
// shuts down gracefully.
func cmdServe(args []string, _, stderr io.Writer) error {
	fs := flagSet("serve", stderr)
	addr := fs.String("addr", "127.0.0.1:8424", "listen address")
	cacheMB := fs.Int("cache-mb", 64, "result cache budget, MiB of response bodies")
	pool := fs.Int("pool", 0, "execution width of the request pool (0 = GOMAXPROCS)")
	maxBodyKB := fs.Int("max-body-kb", 1024, "request body cap, KiB")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *cacheMB < 1 {
		return fmt.Errorf("serve: -cache-mb %d: budget must be at least 1 MiB", *cacheMB)
	}
	if *maxBodyKB < 1 {
		return fmt.Errorf("serve: -max-body-kb %d: cap must be at least 1 KiB", *maxBodyKB)
	}

	srv := serve.New(serve.Config{
		CacheBytes:   int64(*cacheMB) << 20,
		PoolWorkers:  *pool,
		MaxBodyBytes: int64(*maxBodyKB) << 10,
	})
	defer srv.Close()
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	// Graceful shutdown: stop accepting, drain in-flight requests, then
	// return so the deferred Close can stop the worker pool.
	idle := make(chan error, 1)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintf(stderr, "northstar: %v, shutting down\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		idle <- hs.Shutdown(ctx)
	}()

	workers := *pool
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	fmt.Fprintf(stderr, "northstar: serving %d scenarios on http://%s (cache %d MiB, pool width %d)\n",
		len(experiments.Scenarios()), *addr, *cacheMB, workers)
	if err := hs.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return <-idle
}
