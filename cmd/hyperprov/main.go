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
	data := dataFlags{}
	flag.Var(data, "data", "relation data as Relation=file.csv (repeatable)")
	logPath := flag.String("log", "", "transaction log file")
	syntax := flag.String("syntax", "sql", "log syntax: sql or datalog")
	mode := flag.String("mode", "nf", "provenance mode: nf (normal form) or naive")
	show := flag.String("show", "", "relation to print (default: all)")
	abort := flag.String("abort", "", "comma-separated transaction labels to abort hypothetically")
	minimize := flag.Bool("minimize", true, "apply the zero-axiom minimization to printed annotations")
	all := flag.Bool("all", false, "include tombstoned tuples (outside the live database)")
	explain := flag.Bool("explain", false, "print a human-readable account of each annotation")
	saveSnap := flag.String("save-snapshot", "", "write the annotated database to this file after the run")
	loadSnap := flag.String("load-snapshot", "", "restore an annotated database instead of loading CSV data (-data is then ignored)")
	shards := flag.Int("shards", 1, "partition the engine's rows across N storage shards with independent write locks")
	autoIndex := flag.Int("autoindex", 0, "auto-build a column index after N =-pinned scans without one (0 disables the advisor)")
	dataDir := flag.String("data-dir", "", "persist to a write-ahead-logged directory (bootstrapped from -data on first use, recovered afterwards)")
	syncPolicy := flag.String("sync", "always", "WAL durability: always, interval, or never (with -data-dir)")
	ckptEvery := flag.Int("checkpoint-every", 0, "checkpoint after N logged records, 0 = only when the run finishes (with -data-dir)")
	asOf := flag.Int64("as-of", -1, "print the database as of this MVCC epoch instead of the latest state (-1 = latest; epoch 0 is the initial load, each applied batch commits one more)")
	flag.Parse()

	persistent := *dataDir != ""
	if *loadSnap == "" && !persistent && (len(data) == 0 || *logPath == "") {
		fmt.Fprintln(os.Stderr, "usage: hyperprov -data Rel=file.csv -log txns.sql [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	cfg := runConfig{
		data: data, logPath: *logPath, syntax: *syntax, mode: *mode,
		show: *show, abort: *abort, minimize: *minimize, all: *all,
		explain: *explain, saveSnap: *saveSnap, loadSnap: *loadSnap,
		shards: *shards, autoIndex: *autoIndex,
		dataDir: *dataDir, syncPolicy: *syncPolicy, ckptEvery: *ckptEvery,
		asOf: *asOf,
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "hyperprov:", err)
		os.Exit(1)
	}
}

type runConfig struct {
	data               dataFlags
	logPath            string
	syntax             string
	mode               string
	show               string
	abort              string
	minimize, all      bool
	explain            bool
	saveSnap, loadSnap string
	shards             int
	autoIndex          int
	dataDir            string
	syncPolicy         string
	ckptEvery          int
	asOf               int64
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

// loadCSVEngine builds an in-memory engine from the -data CSV files.
// Options select the shard count or the index advisor — annotations
// and snapshots are identical in every configuration.
func loadCSVEngine(data dataFlags, modeName string, opts ...engine.Option) (engine.DB, []string, error) {
	m, err := parseMode(modeName)
	if err != nil {
		return nil, nil, err
	}
	var read time.Duration
	schema, rows, err := csvSource(data, &read)()
	if err != nil {
		return nil, nil, err
	}
	e, err := engine.Load(m, schema, rows, opts...)
	if err != nil {
		return nil, nil, err
	}
	bootedFromCSV(e, read)
	e.Boot().TotalMs += engine.Ms(read)
	return e, schema.Names(), nil
}

// openStore opens (or bootstraps) the persistent store in -data-dir.
// CSV data, when given, seeds a fresh directory only; an existing one
// recovers from its latest checkpoint plus the log suffix and the CSV
// files are not read.
func openStore(dir, syncName, modeName string, ckptEvery int, data dataFlags, engOpts []engine.Option) (*wal.Store, []string, error) {
	pol, err := wal.ParseSyncPolicy(syncName)
	if err != nil {
		return nil, nil, err
	}
	m, err := parseMode(modeName)
	if err != nil {
		return nil, nil, err
	}
	opts := []wal.Option{
		wal.WithMode(m),
		wal.WithSync(pol),
		wal.WithEngineOptions(engOpts...),
	}
	if ckptEvery > 0 {
		opts = append(opts, wal.WithCheckpointEvery(uint64(ckptEvery)))
	}
	var read time.Duration
	if len(data) > 0 {
		opts = append(opts, wal.WithInitialSource(csvSource(data, &read)))
	}
	st, err := wal.Open(dir, opts...)
	if err != nil {
		return nil, nil, err
	}
	bootedFromCSV(st.Engine(), read)
	return st, st.Schema().Names(), nil
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
	var e engine.DB
	var txns []db.Transaction
	var names []string

	opts := []engine.Option{engine.WithShards(cfg.shards), engine.WithAutoIndex(cfg.autoIndex)}
	switch {
	case cfg.dataDir != "":
		if cfg.loadSnap != "" {
			return fmt.Errorf("-load-snapshot cannot be combined with -data-dir (the directory has its own checkpoints)")
		}
		st, ns, err := openStore(cfg.dataDir, cfg.syncPolicy, cfg.mode, cfg.ckptEvery, cfg.data, opts)
		if err != nil {
			return err
		}
		defer func() {
			// Fold the whole run into one checkpoint so the next open
			// starts from a snapshot instead of replaying the log.
			if err := st.Checkpoint(); err != nil {
				fmt.Fprintln(os.Stderr, "hyperprov: final checkpoint:", err)
			}
			if err := st.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "hyperprov: close:", err)
			}
		}()
		e, names = st, ns
	case cfg.loadSnap != "":
		f, err := os.Open(cfg.loadSnap)
		if err != nil {
			return err
		}
		defer f.Close()
		e, err = provstore.LoadSnapshot(f, opts...)
		if err != nil {
			return err
		}
		names = e.Schema().Names()
	default:
		var err error
		e, names, err = loadCSVEngine(cfg.data, cfg.mode, opts...)
		if err != nil {
			return err
		}
	}

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

	printRels := names
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
