package main

import (
	"fmt"
	"os"
	"time"
)

// wireOpts sizes the untimed phases of a wire run.
type wireOpts struct {
	// setupRounds: one launch is a single sample of whatever the host
	// was doing that instant (and the first one of a run finds the
	// binary and the CSVs cold), so set-up is repeated and its median
	// reported — up to this many rounds, but not past setupBudget in
	// total: a three-second set-up is a steadier sample than a
	// tenth-of-a-second one and too dear to repeat.
	setupRounds int
	sampleLag   bool // poll the follower's lag during the timed region
}

const setupBudget = 2500 * time.Millisecond

var fullRun = wireOpts{setupRounds: 7}

func sum(xs []float64) (s float64) {
	for _, x := range xs {
		s += x
	}
	return s
}

// wireResult is everything one wire run measured.
type wireResult struct {
	timed   *timed
	setupS  []float64 // one per set-up round
	listenS []float64
	// before/after are scrapes around the timed region, per server
	// (leader first, then the follower if any).
	before, after []*scrape
	rssMB         float64 // Σ VmHWM at the end of the timed region
	recoverS      float64 // SIGKILL → restarted leader ready (plans with recover)
	replayed      float64 // WAL records that recovery replayed
	refBeforeMs   float64
	refAfterMs    float64
}

// runWire runs the plan against server subprocesses over loopback
// HTTP: repeated set-up, the timed region between two scrapes, the
// correctness checks against the oracle, then (oltp_point) SIGKILL and
// recovery.
// exp may carry an oracle replay done elsewhere (the traced pass); nil
// runs it here, after the timed region.
func runWire(bin string, p *plan, exp *expected, opts wireOpts) (*wireResult, error) {
	env, err := newRunEnv(bin, p)
	if err != nil {
		return nil, err
	}
	defer env.close()
	res := &wireResult{}

	var c *cluster
	for len(res.setupS) == 0 || len(res.setupS) < opts.setupRounds && sum(res.setupS) < setupBudget.Seconds() {
		if c != nil {
			c.kill()
			for _, s := range c.servers() {
				_ = os.RemoveAll(s.dir)
			}
		}
		if c, err = env.setUp(p); err != nil {
			return nil, fmt.Errorf("set-up: %v", err)
		}
		res.setupS = append(res.setupS, c.setup.Seconds())
		res.listenS = append(res.listenS, c.listen.Seconds())
	}
	defer func() { c.kill() }()

	phase("set-up: %.3v s", res.setupS)
	res.refBeforeMs = refKernelMs()
	for _, s := range c.servers() {
		sc, err := env.scrape(s)
		if err != nil {
			return nil, err
		}
		res.before = append(res.before, sc)
	}
	if res.timed, err = env.drive(p, c, opts.sampleLag); err != nil {
		return nil, err
	}
	for _, s := range c.servers() {
		sc, err := env.scrape(s)
		if err != nil {
			return nil, err
		}
		res.after = append(res.after, sc)
		hwm, err := s.peakRSSMB()
		if err != nil {
			return nil, err
		}
		res.rssMB += hwm
	}
	res.refAfterMs = refKernelMs()
	phase("timed region %v (%d ops, %d transactions acknowledged)", res.timed.wall.Round(time.Millisecond), res.timed.attempted, res.timed.acked)
	if res.timed.failed > 0 {
		return res, fmt.Errorf("%d of %d ops failed; first: %v", res.timed.failed, res.timed.attempted, res.timed.firstErr)
	}

	// Correctness: the wire state must equal the oracle's replay of the
	// same op list, on the leader, on the follower, and again after
	// the leader was killed and recovered.
	if exp == nil {
		if exp, err = replayOracle(p, 0); err != nil {
			return nil, err
		}
		phase("oracle replayed")
	}
	if err := checkWhatifRows(res.timed.whatifRows, exp.whatifRows); err != nil {
		return nil, err
	}
	for _, s := range c.servers() {
		if err := env.checkDigest(s, exp, "before the kill"); err != nil {
			return nil, err
		}
	}
	if c.follower != nil {
		// The follower would redial the dead leader for the rest of the
		// run; it has been checked, so it goes first.
		c.follower.kill()
		c.follower = nil
	}
	if !p.recover {
		return res, nil
	}
	killed := time.Now()
	c.leader.kill()
	if c.leader, err = startServer(env.bin, c.leader.dir, p); err != nil {
		return nil, err
	}
	if _, err := c.leader.waitOK("/readyz", readyTimeout); err != nil {
		return nil, fmt.Errorf("recovery: %v", err)
	}
	res.recoverS = time.Since(killed).Seconds()
	stats, err := env.aux.getJSON(c.leader.base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	res.replayed = num(stats, "wal", "replayed_records")
	if err := env.checkDigest(c.leader, exp, "after kill and recovery"); err != nil {
		return nil, err
	}
	phase("recovery: %.3f s (%.0f records replayed)", res.recoverS, res.replayed)
	return res, nil
}

// verbose prints phase progress to standard error (-v).
var verbose bool

var phaseStart = time.Now()

func phase(format string, args ...any) {
	if verbose {
		fmt.Fprintf(os.Stderr, "[%7.2fs] %s\n", time.Since(phaseStart).Seconds(), fmt.Sprintf(format, args...))
	}
}

func (env *runEnv) checkDigest(s *proc, exp *expected, when string) error {
	got, err := env.aux.snapshotDigest(s.base)
	if err != nil {
		return err
	}
	if got != exp.digest {
		return fmt.Errorf("state digest of %s %s is %x, the oracle's is %x", s.dir, when, got[:8], exp.digest[:8])
	}
	return nil
}

func checkWhatifRows(got, want []int) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d what-ifs answered, the oracle ran %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("what-if %d left %d rows, the oracle's leaves %d", i, got[i], want[i])
		}
	}
	return nil
}

// metric is one named number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	note  string  // printed beside the value, not part of the contract line
}

// endToEnd derives the gated end-to-end metrics from a wire run: the
// ones every workload reports and that hold their bound on this host
// (README.md, "Steadiness").
func (res *wireResult) endToEnd() map[string]metric {
	t := res.timed
	var alloc float64
	for i := range res.after {
		alloc += res.after[i].totalAlloc - res.before[i].totalAlloc
	}
	disk := float64(res.after[0].diskBytes - res.before[0].diskBytes)
	// Allocation is per what-if where the what-if is the unit of work.
	allocUnits := float64(t.acked)
	if len(t.whatifRows) > 0 {
		allocUnits = float64(len(t.whatifRows))
	}
	return map[string]metric{
		"setup_s":            {median(res.setupS), "s", ""},
		"disk_bytes_per_txn": {disk / float64(t.acked), "B", ""},
		"alloc_kb_per_txn":   {alloc / 1024 / allocUnits, "kB", ""},
	}
}

// demoted derives the wire metrics the issue defined as end-to-end but
// that cannot hold its bounds on this host; they are reported as
// diagnostics, each by the workloads the issue lists for it (0
// elsewhere).
func (res *wireResult) demoted(p *plan) map[string]metric {
	t := res.timed
	var cpu float64
	for i := range res.after {
		cpu += res.after[i].cpuS - res.before[i].cpuS
	}
	var txnPerS float64
	if p.name == wlOLTP || p.name == wlBulk { // the workloads whose write list is a free-running closed loop
		txnPerS = float64(t.acked) / t.writeWall.Seconds()
	}
	return map[string]metric{
		"write_txn_per_s": {txnPerS, "1/s", "acknowledged transactions / wall time of the write list"},
		"write_p50_ms":    {median(t.writeMs), "ms", ""},
		"read_p50_ms":     {median(t.readMs), "ms", ""},
		"visible_p50_ms":  {median(t.visibleMs), "ms", "write due → delta frame on the follower stream"},
		"recover_s":       {res.recoverS, "s", "SIGKILL → restarted server answers /readyz 200"},
		"server_cpu_s":    {cpu, "s", ""},
		"rss_mb":          {res.rssMB, "MB", "Σ VmHWM at the end of the timed region"},
	}
}
