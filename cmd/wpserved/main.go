// Command wpserved is the long-running simulation service: it accepts
// simulation jobs over HTTP/JSON, runs them on a bounded worker pool,
// and persists job state — specs, results, checkpoint chains — under a
// state directory so a SIGTERM drains gracefully and the next daemon
// run resumes every in-flight job bit-identically.
//
//	wpserved -addr 127.0.0.1:8080 -state-dir /var/lib/wpserved
//
// API (see internal/server): POST /jobs, GET /jobs, GET /jobs/{id},
// GET /jobs/{id}/result, POST /jobs/{id}/cancel, GET /metrics,
// GET /healthz. A full admission queue answers 429 with Retry-After; a
// draining daemon answers 503.
//
// One daemon owns a state directory: wpserved holds an exclusive lock
// on <state-dir>/wpserved.lock while it runs, and a second daemon over
// the same directory exits 1 instead of numbering its jobs from the same
// maximum and overwriting the first one's specs.
//
// Exit codes: 0 after a clean drain (including SIGTERM/SIGINT), 1 on a
// hard failure (a locked state directory among them) or a drain that
// exceeded -drain-timeout, 2 on a usage error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/cliobs"
	"repro/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole daemon behind an exit code; the deferred
// observability Finish guarantees -metrics-out and -pprof flush on
// every exit path, including failed startups and timed-out drains.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("wpserved", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
	addrFile := fs.String("addr-file", "", "write the bound address to this `file` (for -addr with port 0)")
	workers := fs.Int("workers", 0, "worker-pool width (0: one per host core)")
	queueDepth := fs.Int("queue-depth", 0, "admission-queue bound; beyond it submits get 429 (0: 64)")
	stateDir := fs.String("state-dir", "", "durable job store `dir`; empty runs ephemeral (no resume)")
	ckptEvery := fs.Uint64("checkpoint-every", 0, "default snapshot interval in retired instructions (0: 1M)")
	cache := fs.Bool("cache", true, "serve repeated identical specs from the content-addressed result cache (persists under state-dir/cache)")
	cacheMax := fs.Int("cache-max", 0, "result-cache in-memory entry bound (0: default)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long a shutdown waits for running jobs to park")
	var obsFlags cliobs.Flags
	obsFlags.Register(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	reg, _, err := obsFlags.Start()
	if err != nil {
		fmt.Fprintf(stderr, "wpserved: observability: %v\n", err)
		return 1
	}
	defer func() {
		if err := obsFlags.Finish(); err != nil {
			fmt.Fprintf(stderr, "wpserved: observability: %v\n", err)
			if code == 0 {
				code = 1
			}
		}
	}()

	if *stateDir != "" {
		lock, err := lockStateDir(*stateDir)
		if err != nil {
			fmt.Fprintf(stderr, "wpserved: %v\n", err)
			return 1
		}
		defer lock.Close()
	}

	srvCacheMax := *cacheMax
	if !*cache {
		srvCacheMax = -1
	}
	srv, err := server.New(server.Config{
		Workers:         *workers,
		QueueDepth:      *queueDepth,
		StateDir:        *stateDir,
		CheckpointEvery: *ckptEvery,
		CacheMax:        srvCacheMax,
		Metrics:         reg,
	})
	if err != nil {
		fmt.Fprintf(stderr, "wpserved: %v\n", err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "wpserved: %v\n", err)
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		_ = srv.Drain(drainCtx)
		return 1
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			fmt.Fprintf(stderr, "wpserved: writing -addr-file: %v\n", err)
			ln.Close()
			drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
			defer cancel()
			_ = srv.Drain(drainCtx)
			return 1
		}
	}
	fmt.Fprintf(stdout, "wpserved: listening on %s\n", bound)

	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigs:
		fmt.Fprintf(stdout, "wpserved: %v: draining (second signal aborts)\n", sig)
	case err := <-serveErr:
		fmt.Fprintf(stderr, "wpserved: serve: %v\n", err)
		code = 1
	}

	// Drain: stop admission, cancel running jobs at their next lane
	// boundary, leave their checkpoint chains for the next daemon run.
	// A second signal cuts the wait short.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	go func() {
		select {
		case <-sigs:
			fmt.Fprintln(stderr, "wpserved: second signal: aborting drain")
			cancel()
		case <-drainCtx.Done():
		}
	}()
	if err := srv.Drain(drainCtx); err != nil {
		fmt.Fprintf(stderr, "wpserved: %v\n", err)
		code = 1
	}
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shutCancel()
	_ = hs.Shutdown(shutCtx)
	fmt.Fprintln(stdout, "wpserved: drained")
	return code
}

// lockStateDir takes an exclusive, non-blocking lock on
// dir/wpserved.lock. The lock lasts until the returned file is closed or
// the process exits; it fails, naming dir, while another process holds
// it.
func lockStateDir(dir string) (*os.File, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, "wpserved.lock"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("state dir %s is in use by another wpserved: %w", dir, err)
	}
	return f, nil
}
