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
	"hyperprov/internal/provstore"
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
	data := dataFlags{}
	fs.Var(data, "data", "relation data as Relation=file.csv (repeatable)")
	addr := fs.String("addr", ":8080", "listen address")
	logPath := fs.String("log", "", "transaction log to ingest in the background after startup")
	syntax := fs.String("syntax", "sql", "log syntax: sql or datalog")
	mode := fs.String("mode", "nf", "provenance mode: nf (normal form) or naive")
	loadSnap := fs.String("load-snapshot", "", "restore an annotated database instead of loading CSV data (-data and -mode are then ignored)")
	shards := fs.Int("shards", 1, "partition the engine's rows across N storage shards with independent write locks")
	autoIndex := fs.Int("autoindex", 0, "auto-build a column index after N =-pinned scans without one (0 disables the advisor)")
	timeout := fs.Duration("timeout", server.DefaultTimeout, "per-request timeout (0 disables)")
	grace := fs.Duration("shutdown-grace", 10*time.Second, "how long in-flight requests may finish on shutdown")
	dataDir := fs.String("data-dir", "", "persist to a write-ahead-logged directory (bootstrapped from -data on first use, recovered afterwards)")
	syncPolicy := fs.String("sync", "always", "WAL durability: always, interval, or never (with -data-dir)")
	ckptEvery := fs.Int("checkpoint-every", 0, "checkpoint after N logged records, 0 = only via POST /v1/checkpoint and shutdown (with -data-dir)")
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
	reconnectBudget := fs.Int("reconnect-budget", 0, "consecutive failed redials before the follower's circuit breaker opens for a cooldown (with -follow; 0 disables)")
	stallTimeout := fs.Duration("stall-timeout", 10*time.Second, "silence on the replication stream before the follower declares it dead and redials (with -follow; 0 waits forever)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *loadSnap == "" && len(data) == 0 && *dataDir == "" {
		fs.Usage()
		return errors.New("need -data Rel=file.csv, -load-snapshot, or -data-dir")
	}
	if *follow != "" {
		switch {
		case *dataDir == "":
			return errors.New("-follow needs -data-dir for the replica's local WAL")
		case len(data) > 0, *loadSnap != "", *logPath != "":
			return errors.New("-follow replicates from the leader; -data, -load-snapshot and -log do not apply")
		}
	}

	logger := log.New(os.Stderr, "hyperprov: ", log.LstdFlags)
	engOpts := []engine.Option{engine.WithShards(*shards), engine.WithAutoIndex(*autoIndex)}
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
	var srv *server.Server
	var store *wal.Store
	var follower *wal.Follower
	switch {
	case *follow != "":
		sp, err := wal.ParseSyncPolicy(*syncPolicy)
		if err != nil {
			return err
		}
		walOpts := []wal.Option{
			wal.WithSync(sp),
			wal.WithCheckpointEvery(uint64(*ckptEvery)),
			wal.WithEngineOptions(engOpts...),
			wal.WithReconnectBudget(*reconnectBudget, 0),
			wal.WithStreamStallTimeout(*stallTimeout),
		}
		// Bound only the initial bootstrap wait; once the local engine
		// exists the follower reconnects forever on its own.
		bootCtx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		fl, err := wal.OpenFollower(bootCtx, *dataDir, wal.HTTPSource(*follow, nil), walOpts...)
		cancel()
		if err != nil {
			return fmt.Errorf("opening follower: %w", err)
		}
		follower = fl
		srv = server.New(fl, srvOpts...)
		rs := fl.ReplicaStats()
		logger.Printf("following %s from %s at LSN %d (leader LSN %d)", *follow, *dataDir, rs.AppliedLSN, rs.LeaderLSN)
	case *dataDir != "":
		if *loadSnap != "" {
			return errors.New("-load-snapshot cannot be combined with -data-dir (the directory has its own checkpoints)")
		}
		st, _, err := openStore(*dataDir, *syncPolicy, *mode, *ckptEvery, data, engOpts)
		if err != nil {
			return err
		}
		store = st
		srv = server.New(st, srvOpts...)
		logger.Printf("persistent store %s at LSN %d (sync=%s)", *dataDir, st.Stats().LSN, *syncPolicy)
	case *loadSnap != "":
		f, err := os.Open(*loadSnap)
		if err != nil {
			return err
		}
		e, err := provstore.LoadSnapshot(f, engOpts...)
		f.Close()
		if err != nil {
			return err
		}
		srv = server.New(e, srvOpts...)
	default:
		e, _, err := loadCSVEngine(data, *mode, engOpts...)
		if err != nil {
			return err
		}
		srv = server.New(e, srvOpts...)
	}
	srv.PublishExpvar("hyperprov")
	logger.Printf("serving %d rows (%s) on %s; boot %+v", srv.Engine().NumRows(), srv.Engine().Mode(), *addr, engine.BootOf(srv.Engine()))

	// Background ingestion: the engine answers reads at transaction
	// granularity while the log applies.
	if *logPath != "" {
		src, err := os.ReadFile(*logPath)
		if err != nil {
			return err
		}
		txns, err := parseLog(srv.Engine(), *syntax, string(src))
		if err != nil {
			return err
		}
		go func() {
			start := time.Now()
			if err := srv.Engine().ApplyAll(context.Background(), txns); err != nil {
				logger.Printf("background ingestion failed: %v", err)
				return
			}
			logger.Printf("ingested %d transactions from %s in %v", len(txns), *logPath, time.Since(start).Round(time.Millisecond))
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
	if store != nil {
		// One final checkpoint so the next start restores from a
		// snapshot instead of replaying the whole log, then release the
		// directory lock.
		if err := store.Checkpoint(); err != nil {
			logger.Printf("final checkpoint: %v", err)
		}
		if err := store.Close(); err != nil {
			return fmt.Errorf("closing store: %w", err)
		}
	}
	if follower != nil {
		if err := follower.Close(); err != nil {
			return fmt.Errorf("closing follower: %w", err)
		}
	}
	logger.Printf("bye")
	return nil
}
