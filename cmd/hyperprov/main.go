// Command hyperprov runs an annotated hyperplane transaction log over
// CSV data with provenance tracking and prints the annotated result.
//
//	hyperprov -data Products=products.csv [-data Other=o.csv] -log txns.sql \
//	          [-syntax sql|datalog] [-mode nf|naive] [-show Products] \
//	          [-abort p1,p2] [-minimize] [-all]
//
// The log is either the SQL fragment of Section 2 of the paper
// (INSERT/DELETE/UPDATE with =/<> constant predicates, grouped by
// "BEGIN label; … COMMIT;") or the paper's datalog-like notation (one
// annotated query per line). Initial tuples are annotated t0, t1, … in
// deterministic (sorted-key) order.
//
// By default the live relation is printed with each tuple's provenance
// annotation. -abort prints instead the hypothetical database with the
// given transactions aborted (their annotations set to false), computed
// from provenance without re-running the log. -all includes tombstoned
// tuples (annotations that evaluate to an absent tuple). -as-of N
// prints the database as it stood at the end of MVCC epoch N (epoch 0
// is the initial load) via a pinned time-travel view.
//
// With -data-dir the run is persistent: every transaction is written to
// a checksummed write-ahead log before it is applied, and a later run
// (or serve) on the same directory recovers the state exactly. -sync
// picks the durability level (always, interval, never) and
// -checkpoint-every the automatic checkpoint cadence.
//
// The serve subcommand exposes the engine over HTTP/JSON instead of
// printing it (see serve.go and the README):
//
//	hyperprov serve -addr :8080 -data Products=products.csv [-log txns.sql] \
//	          [-syntax sql|datalog] [-mode nf|naive] [-load-snapshot file] \
//	          [-data-dir dir] [-sync always|interval|never] [-timeout 30s]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/parser"
	"hyperprov/internal/provstore"
	"hyperprov/internal/upstruct"
	"hyperprov/internal/wal"
)

type dataFlags map[string]string

func (d dataFlags) String() string { return fmt.Sprint(map[string]string(d)) }

func (d dataFlags) Set(v string) error {
	eq := strings.IndexByte(v, '=')
	if eq <= 0 {
		return fmt.Errorf("want Relation=file.csv, got %q", v)
	}
	d[v[:eq]] = v[eq+1:]
	return nil
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := runServe(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "hyperprov serve:", err)
			os.Exit(1)
		}
		return
	}
	var cfg runConfig
	cfg.register(flag.CommandLine, "transaction log file", "-data is", "when the run finishes")
	flag.StringVar(&cfg.show, "show", "", "relation to print (default: all)")
	flag.StringVar(&cfg.abort, "abort", "", "comma-separated transaction labels to abort hypothetically")
	flag.BoolVar(&cfg.minimize, "minimize", true, "apply the zero-axiom minimization to printed annotations")
	flag.BoolVar(&cfg.all, "all", false, "include tombstoned tuples (outside the live database)")
	flag.BoolVar(&cfg.explain, "explain", false, "print a human-readable account of each annotation")
	flag.StringVar(&cfg.saveSnap, "save-snapshot", "", "write the annotated database to this file after the run")
	flag.Int64Var(&cfg.asOf, "as-of", -1, "print the database as of this MVCC epoch instead of the latest state (-1 = latest; epoch 0 is the initial load, each applied batch commits one more)")
	flag.Parse()

	if cfg.loadSnap == "" && cfg.dataDir == "" && (len(cfg.data) == 0 || cfg.logPath == "") {
		fmt.Fprintln(os.Stderr, "usage: hyperprov -data Rel=file.csv -log txns.sql [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "hyperprov:", err)
		os.Exit(1)
	}
}

// source is what both commands are told about the database they open:
// where it comes from (a data directory, a snapshot or CSV files), the
// log to apply to it and how its engine is set up.
type source struct {
	data       dataFlags
	logPath    string
	syntax     string
	mode       string
	loadSnap   string
	autoIndex  int
	dataDir    string
	syncPolicy string
	ckptEvery  int
}

// register declares the source's flags on fs. The three arguments are
// where the commands' help differs: what -log is, what -load-snapshot
// makes moot, and when a store is checkpointed under -checkpoint-every 0.
func (s *source) register(fs *flag.FlagSet, logUse, snapIgnores, ckptAtZero string) {
	s.data = dataFlags{}
	fs.Var(s.data, "data", "relation data as Relation=file.csv (repeatable)")
	fs.StringVar(&s.logPath, "log", "", logUse)
	fs.StringVar(&s.syntax, "syntax", "sql", "log syntax: sql or datalog")
	fs.StringVar(&s.mode, "mode", "nf", "provenance mode: nf (normal form) or naive")
	fs.StringVar(&s.loadSnap, "load-snapshot", "", "restore an annotated database instead of loading CSV data ("+snapIgnores+" then ignored)")
	// -shards stays only because the wire benchmark (bench/e2e) still
	// passes -shards 1, which is to be dropped there first.
	fs.Int("shards", 1, "deprecated and ignored: the engine stores its rows in one partition")
	fs.IntVar(&s.autoIndex, "autoindex", 0, "auto-build a column index after N =-pinned scans without one (0 disables the advisor)")
	fs.StringVar(&s.dataDir, "data-dir", "", "persist to a write-ahead-logged directory (bootstrapped from -data on first use, recovered afterwards)")
	fs.StringVar(&s.syncPolicy, "sync", "always", "WAL durability: always, interval, or never (with -data-dir)")
	fs.IntVar(&s.ckptEvery, "checkpoint-every", 0, "checkpoint after N logged records, 0 = only "+ckptAtZero+" (with -data-dir)")
}

// engineOptions are the engine settings the flags select. They are
// access paths only: annotations and snapshots are identical in every
// configuration.
func (s *source) engineOptions() []engine.Option {
	return []engine.Option{engine.WithAutoIndex(s.autoIndex)}
}

// open opens the database the flags name: the data directory, else the
// snapshot, else the CSV files. finish closes it.
func (s *source) open() (engine.DB, error) {
	switch {
	case s.dataDir != "":
		if s.loadSnap != "" {
			return nil, errors.New("-load-snapshot cannot be combined with -data-dir (the directory has its own checkpoints)")
		}
		return s.openStore()
	case s.loadSnap != "":
		f, err := os.Open(s.loadSnap)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		snap, err := provstore.LoadSnapshot(f, s.engineOptions()...)
		if err != nil {
			return nil, err
		}
		return snap, nil
	default:
		return s.loadCSV()
	}
}

// finish closes what open returned. For a data directory that is one
// final checkpoint, so that the next start restores from a snapshot
// instead of replaying the whole log (its failure is worth a line, no
// more: the log holds everything), then the Close that releases the
// directory lock; for an engine in memory, nothing.
func finish(e engine.DB) (ckptErr, closeErr error) {
	if st, persistent := e.(*wal.Store); persistent {
		return st.Checkpoint(), st.Close()
	}
	return nil, nil
}

type runConfig struct {
	source
	show          string
	abort         string
	minimize, all bool
	explain       bool
	saveSnap      string
	asOf          int64
}

func parseMode(name string) (engine.Mode, error) {
	switch name {
	case "nf":
		return engine.ModeNormalForm, nil
	case "naive":
		return engine.ModeNaive, nil
	default:
		return 0, fmt.Errorf("unknown mode %q", name)
	}
}

// csvSource is the -data CSV files as an engine's initial rows: every
// relation's schema from its file's header, relations in sorted order,
// rows straight from the files' bytes (db.CSVRows). Nothing is read until
// it is called; *read is then how long the files took to read.
func csvSource(data dataFlags, read *time.Duration) func() (*db.Schema, db.RowSource, error) {
	return func() (*db.Schema, db.RowSource, error) {
		start := time.Now()
		var names []string
		for rel := range data {
			names = append(names, rel)
		}
		sort.Strings(names)
		rels, files := make([]*db.RelationSchema, len(names)), make([][]byte, len(names))
		for i, rel := range names {
			var err error
			if files[i], err = os.ReadFile(data[rel]); err != nil {
				return nil, nil, err
			}
			if rels[i], err = db.CSVSchema(rel, files[i]); err != nil {
				return nil, nil, err
			}
		}
		schema, err := db.NewSchema(rels...)
		*read = time.Since(start)
		return schema, func(emit func(db.RowBatch) error) error {
			for i, rs := range rels {
				if err := db.CSVRows(rs, files[i], emit); err != nil {
					return err
				}
			}
			return nil
		}, err
	}
}

// bootedFromCSV completes the boot record of an engine csvSource's rows
// were loaded into (read > 0: the source was called): where they came
// from and what reading them took.
func bootedFromCSV(e *engine.Engine, read time.Duration) {
	if b := e.Boot(); read > 0 {
		b.Source, b.ReadMs = "csv", engine.Ms(read)
	}
}

// loadCSV builds an in-memory engine from the -data CSV files.
func (s *source) loadCSV() (engine.DB, error) {
	m, err := parseMode(s.mode)
	if err != nil {
		return nil, err
	}
	var read time.Duration
	schema, rows, err := csvSource(s.data, &read)()
	if err != nil {
		return nil, err
	}
	e, err := engine.Load(m, schema, rows, s.engineOptions()...)
	if err != nil {
		return nil, err
	}
	bootedFromCSV(e, read)
	e.Boot().TotalMs += engine.Ms(read)
	return e, nil
}

// openStore opens (or bootstraps) the persistent store in -data-dir.
// CSV data, when given, seeds a fresh directory only; an existing one
// recovers from its latest checkpoint plus the log suffix and the CSV
// files are not read.
func (s *source) openStore() (engine.DB, error) {
	pol, err := wal.ParseSyncPolicy(s.syncPolicy)
	if err != nil {
		return nil, err
	}
	m, err := parseMode(s.mode)
	if err != nil {
		return nil, err
	}
	opts := []wal.Option{
		wal.WithMode(m),
		wal.WithSync(pol),
		wal.WithEngineOptions(s.engineOptions()...),
	}
	if s.ckptEvery > 0 {
		opts = append(opts, wal.WithCheckpointEvery(uint64(s.ckptEvery)))
	}
	var read time.Duration
	if len(s.data) > 0 {
		opts = append(opts, wal.WithInitialSource(csvSource(s.data, &read)))
	}
	st, err := wal.Open(s.dataDir, opts...)
	if err != nil {
		return nil, err
	}
	bootedFromCSV(st.Engine(), read)
	return st, nil
}

// parseLog parses a transaction log in the given syntax.
func parseLog(e engine.DB, syntax, src string) ([]db.Transaction, error) {
	switch syntax {
	case "sql":
		return parser.ParseSQLLog(e.Schema(), src)
	case "datalog":
		return parser.ParseDatalogLog(e.Schema(), src)
	default:
		return nil, fmt.Errorf("unknown syntax %q", syntax)
	}
}

func run(cfg runConfig) error {
	e, err := cfg.open()
	if err != nil {
		return err
	}
	defer func() {
		ckptErr, closeErr := finish(e)
		if ckptErr != nil {
			fmt.Fprintln(os.Stderr, "hyperprov: final checkpoint:", ckptErr)
		}
		if closeErr != nil {
			fmt.Fprintln(os.Stderr, "hyperprov: close:", closeErr)
		}
	}()

	var txns []db.Transaction
	if cfg.logPath != "" {
		logSrc, err := os.ReadFile(cfg.logPath)
		if err != nil {
			return err
		}
		txns, err = parseLog(e, cfg.syntax, string(logSrc))
		if err != nil {
			return err
		}
		if err := e.ApplyAll(context.Background(), txns); err != nil {
			return err
		}
	}

	// Reads run against r: the live engine, or — under -as-of — a
	// read-only MVCC view pinned at the end of the requested epoch.
	var r engine.Reader = e
	if cfg.asOf >= 0 {
		h := engine.SeqEpoch(e.Horizon())
		if uint64(cfg.asOf) > h {
			return fmt.Errorf("-as-of epoch %d is beyond the committed horizon epoch %d", cfg.asOf, h)
		}
		r = e.At(engine.EpochSeq(uint64(cfg.asOf)))
		fmt.Printf("-- database as of epoch %d (horizon epoch %d)\n", cfg.asOf, h)
	}

	env := func(core.Annot) bool { return true }
	if cfg.abort != "" {
		dead := make(map[core.Annot]bool)
		for _, label := range strings.Split(cfg.abort, ",") {
			dead[core.QueryAnnot(strings.TrimSpace(label))] = false
		}
		env = upstruct.MapEnv(dead, true)
		fmt.Printf("-- hypothetical database with transactions aborted: %s\n", cfg.abort)
	}

	printRels := r.Schema().Names()
	if cfg.show != "" {
		printRels = []string{cfg.show}
	}
	for _, rel := range printRels {
		if r.Schema().Relation(rel) == nil {
			return fmt.Errorf("unknown relation %s", rel)
		}
		fmt.Printf("== %s ==\n", rel)
		type line struct {
			tuple string
			live  bool
			ann   string
		}
		var lines []line
		r.EachRow(rel, func(t db.Tuple, ann *core.Expr) {
			live := upstruct.Eval(ann, upstruct.Bool, env)
			if !live && !cfg.all {
				return
			}
			if cfg.minimize {
				ann = core.Minimize(ann)
			}
			rendered := ann.String()
			if cfg.explain {
				rendered = "\n" + core.ExplainString(ann)
			}
			lines = append(lines, line{tuple: t.String(), live: live, ann: rendered})
		})
		sort.Slice(lines, func(i, j int) bool { return lines[i].tuple < lines[j].tuple })
		for _, l := range lines {
			marker := " "
			if !l.live {
				marker = "✗"
			}
			fmt.Printf("%s %-50s  %s\n", marker, l.tuple, l.ann)
		}
	}
	fmt.Printf("-- %d transactions, %d update queries, provenance size %d nodes (%s)\n",
		len(txns), db.CountQueries(txns), r.ProvSize(), r.Mode())
	if cfg.saveSnap != "" {
		f, err := os.Create(cfg.saveSnap)
		if err != nil {
			return err
		}
		// Under -as-of the snapshot captures the pinned epoch, not the
		// latest state.
		if err := provstore.SaveSnapshot(f, r); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("-- snapshot written to %s\n", cfg.saveSnap)
	}
	return nil
}
