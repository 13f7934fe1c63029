package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hyperprov/internal/admission"
	"hyperprov/internal/engine"
	"hyperprov/internal/server"
	"hyperprov/internal/wal"
)

// runServe implements the serve subcommand: it loads an annotated
// database (CSV data or a snapshot), optionally ingests a transaction
// log in the background while already answering requests, and serves
// the provenance-usage API of internal/server until SIGINT/SIGTERM,
// then shuts down gracefully.
func runServe(args []string) error {
	fs := flag.NewFlagSet("hyperprov serve", flag.ExitOnError)
	var src source
	src.register(fs, "transaction log to ingest in the background after startup", "-data and -mode are", "via POST /v1/checkpoint and shutdown")
	addr := fs.String("addr", ":8080", "listen address")
	timeout := fs.Duration("timeout", server.DefaultTimeout, "per-request timeout (0 disables)")
	grace := fs.Duration("shutdown-grace", 10*time.Second, "how long in-flight requests may finish on shutdown")
	follow := fs.String("follow", "", "run as a read replica of the leader at this base URL (e.g. http://leader:8080); requires -data-dir, refuses writes")
	pprofOn := fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (heap and allocs profiles verify the zero-allocation read path)")
	maxInflight := fs.Int("max-inflight", 0, "concurrent expensive requests (db dumps, what-ifs, snapshot saves); 0 = unlimited")
	maxInflightReads := fs.Int("max-inflight-reads", 0, "concurrent cheap point reads (annotation, schema, index listings); 0 = unlimited")
	maxInflightWrites := fs.Int("max-inflight-writes", 0, "concurrent writes (ingest, index DDL, checkpoints, snapshot loads); 0 = unlimited")
	maxStreams := fs.Int("max-streams", 0, "concurrent replication/subscription streams (no queue; excess sheds immediately); 0 = unlimited")
	queueDepth := fs.Int("queue-depth", 16, "per-class wait queue depth once a class is at its limit (0 = shed immediately)")
	queueWait := fs.Duration("queue-wait", time.Second, "longest a request may wait in a class queue before it is shed")
	minService := fs.Duration("min-service", 0, "shed a queued request immediately if its deadline leaves less than this to actually serve it")
	maxBody := fs.Int64("max-body-bytes", 64<<20, "largest accepted request body (ingest logs, snapshot uploads); oversize answers 413")
	stallTimeout := fs.Duration("stall-timeout", 10*time.Second, "silence on the replication stream, its opening included, before the follower declares it dead and redials (with -follow; 0 waits forever)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if src.loadSnap == "" && len(src.data) == 0 && src.dataDir == "" {
		fs.Usage()
		return errors.New("need -data Rel=file.csv, -load-snapshot, or -data-dir")
	}
	if *follow != "" {
		switch {
		case src.dataDir == "":
			return errors.New("-follow needs -data-dir for the replica's local WAL")
		case len(src.data) > 0, src.loadSnap != "", src.logPath != "":
			return errors.New("-follow replicates from the leader; -data, -load-snapshot and -log do not apply")
		}
	}

	logger := log.New(os.Stderr, "hyperprov: ", log.LstdFlags)
	admCfg := admission.Unlimited()
	admCfg.MinService = *minService
	for class, limit := range map[admission.Class]int{
		admission.ClassRead:      *maxInflightReads,
		admission.ClassExpensive: *maxInflight,
		admission.ClassWrite:     *maxInflightWrites,
	} {
		if limit > 0 {
			admCfg.Classes[class] = admission.ClassConfig{
				MaxInFlight: limit, QueueDepth: *queueDepth, QueueWait: *queueWait,
			}
		}
	}
	if *maxStreams > 0 {
		// Streams hold their slot for the connection's lifetime; a queue
		// would just park handshakes, so excess sheds immediately.
		admCfg.Classes[admission.ClassStream] = admission.ClassConfig{MaxInFlight: *maxStreams}
	}
	srvOpts := []server.Option{
		server.WithTimeout(*timeout),
		server.WithLogf(logger.Printf),
		server.WithAdmission(admCfg),
		server.WithMaxBodyBytes(*maxBody),
	}
	var served engine.DB
	var follower *wal.Follower
	if *follow != "" {
		sp, err := wal.ParseSyncPolicy(src.syncPolicy)
		if err != nil {
			return err
		}
		walOpts := []wal.Option{
			wal.WithSync(sp),
			wal.WithCheckpointEvery(uint64(src.ckptEvery)),
			wal.WithEngineOptions(src.engineOptions()...),
			wal.WithStreamStallTimeout(*stallTimeout),
		}
		// Bound only the initial bootstrap wait; once the local engine
		// exists the follower reconnects forever on its own.
		bootCtx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		fl, err := wal.OpenFollower(bootCtx, src.dataDir, wal.HTTPSource(*follow, nil), walOpts...)
		cancel()
		if err != nil {
			return fmt.Errorf("opening follower: %w", err)
		}
		served, follower = fl, fl
		rs := fl.ReplicaStats()
		logger.Printf("following %s from %s at LSN %d (leader LSN %d)", *follow, src.dataDir, rs.AppliedLSN, rs.LeaderLSN)
	} else {
		var err error
		if served, err = src.open(); err != nil {
			return err
		}
		if st, persistent := served.(*wal.Store); persistent {
			logger.Printf("persistent store %s at LSN %d (sync=%s)", src.dataDir, st.Stats().LSN, src.syncPolicy)
		}
	}
	srv := server.New(served, srvOpts...)
	srv.PublishExpvar("hyperprov")
	logger.Printf("serving %d rows (%s) on %s; boot %+v", srv.Engine().NumRows(), srv.Engine().Mode(), *addr, engine.BootOf(srv.Engine()))

	// Background ingestion: the engine answers reads at transaction
	// granularity while the log applies.
	if src.logPath != "" {
		text, err := os.ReadFile(src.logPath)
		if err != nil {
			return err
		}
		txns, err := parseLog(srv.Engine(), src.syntax, string(text))
		if err != nil {
			return err
		}
		go func() {
			start := time.Now()
			if err := srv.Engine().ApplyAll(context.Background(), txns); err != nil {
				logger.Printf("background ingestion failed: %v", err)
				return
			}
			logger.Printf("ingested %d transactions from %s in %v", len(txns), src.logPath, time.Since(start).Round(time.Millisecond))
		}()
	}

	handler := srv.Handler()
	if *pprofOn {
		// Opt-in profiling endpoints, mounted in front of the API handler
		// so they bypass its request timeout (profiles stream for their
		// whole -seconds window). The API is unaffected when -pprof is off.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
		logger.Printf("pprof enabled at /debug/pprof/")
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	stop()
	logger.Printf("shutting down (grace %v)", *grace)
	// Replication and subscription streams never end on their own and
	// would hold Shutdown for the whole grace period; cut them first —
	// followers redial once the leader is back. Close also stops the
	// subscription manager and uninstalls the engine's commit hook.
	srv.Close()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if follower != nil {
		if err := follower.Close(); err != nil {
			return fmt.Errorf("closing follower: %w", err)
		}
	}
	ckptErr, closeErr := finish(served)
	if ckptErr != nil {
		logger.Printf("final checkpoint: %v", ckptErr)
	}
	if closeErr != nil {
		return fmt.Errorf("closing store: %w", closeErr)
	}
	logger.Printf("bye")
	return nil
}
