package subscribe

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"

	"hyperprov/internal/db"
	"hyperprov/internal/engine"
)

// ErrClosed reports a read from a closed connection or manager.
var ErrClosed = errors.New("subscribe: connection closed")

// item is one unit of dispatcher work: a commit event, with the number
// of resets the hook had heard when it queued it, or a sync barrier.
type item struct {
	ev     engine.CommitEvent
	resets uint64
	sync   chan struct{}
}

// source is what the manager reads and listens to: an engine, a
// persistent store or follower, or the engine.Handle a server swaps
// snapshot loads through. Whoever replaces the engine behind it
// announces that on the hook as a CommitReset (engine.Handle.Swap), so
// the manager never learns which engine it is talking to.
type source interface {
	At(k uint64) engine.View
	Horizon() uint64
	Schema() *db.Schema
	SetCommitHook(engine.CommitHook)
}

// Manager maintains every live subscription against one source. It
// consumes the engine's commit-event bus on a dedicated dispatcher
// goroutine: the commit hook only enqueues onto a bounded channel (or,
// on overflow, sets a lost flag and drops — the write path is never
// blocked), and the dispatcher folds events into delta frames and fans
// them out to connections. A connection that does not keep up loses
// frames, not correctness: its subscription is flagged for resync and
// the next read returns a full snapshot.
type Manager struct {
	mu sync.Mutex
	d  source
	// subs is every subscription in registration order — the order of a
	// commit's frames; whatifs and watches (by relation) index it for the
	// dispatcher, so a touched row is offered only to the subscriptions
	// that can move on it.
	subs    []*sub
	whatifs []*sub
	watches map[string][]*sub
	conns   map[*Conn]struct{}
	seq     int // auto-ID counter
	fold    fold

	items  chan item
	free   db.FreeList[[]engine.RowRef] // the row buffers of folded events, for the hook
	stop   chan struct{}
	wg     sync.WaitGroup
	closed bool

	// lost is set when the bounded queue overflowed and an event was
	// dropped. The dispatcher repairs by moving every subscription to the
	// live horizon — which covers every dropped event — and flagging it
	// for resync.
	lost atomic.Bool

	nsubs     atomic.Int64
	lastEpoch atomic.Uint64 // newest epoch the dispatcher has folded in
	// resets counts the CommitResets heard. An event queued under an
	// earlier count comes from the engine a reset has since replaced: its
	// epoch means nothing against the new one, and the rebuild covers it.
	resets atomic.Uint64

	events, qdrops, deltas, fanout, cdrops, resyncs, rebuilds, respec, frameBytes atomic.Uint64
}

// queueDepth bounds the hook→dispatcher channel (overflow costs a
// rebuild, not a stall). defaultConnBuffer bounds a connection's frame
// queue when Attach is given a non-positive buffer; MaxConnBuffer is
// the most a client may ask for (a slot is a pointer: 512 KiB).
const (
	queueDepth        = 256
	defaultConnBuffer = 64
	MaxConnBuffer     = 1 << 16
)

// NewManager builds a manager over d and installs its commit hook.
// Close must be called to uninstall it and stop the dispatcher.
func NewManager(d source) *Manager {
	m := &Manager{d: d, conns: make(map[*Conn]struct{}), items: make(chan item, queueDepth), stop: make(chan struct{})}
	m.free = db.FreeList[[]engine.RowRef]{Max: queueDepth, New: func() []engine.RowRef { return nil }}
	m.lastEpoch.Store(d.Horizon())
	m.wg.Add(1)
	go m.dispatch()
	d.SetCommitHook(m.hook)
	return m
}

// hook is the commit hook. It runs on the committing goroutine with
// engine locks held and must never block: overflow drops the event and
// flags a rebuild. ev.Rows is the engine's buffer, borrowed for the
// call (engine.CommitHook), so an event that is queued takes a copy, in
// a buffer the dispatcher hands back once it has folded the event in:
// the hook allocates only when every buffer is in the queue.
func (m *Manager) hook(ev engine.CommitEvent) {
	m.events.Add(1)
	if m.nsubs.Load() == 0 && ev.Kind != engine.CommitReset {
		// No subscriptions: just track the horizon; nothing to fold.
		m.storeLastEpoch(ev.Epoch)
		return
	}
	if ev.Kind == engine.CommitReset {
		m.resets.Add(1)
	}
	ev.Rows = append(m.free.Get(), ev.Rows...)
	select {
	case m.items <- item{ev: ev, resets: m.resets.Load()}:
	default:
		m.qdrops.Add(1)
		m.lost.Store(true)
	}
}

// freeRowsKeep is the longest row buffer the hook's free list keeps
// (6 kB). Its Max is queueDepth, one buffer for each event the queue
// holds: at most 1.5 MB retained.
const freeRowsKeep = 256

// storeLastEpoch advances lastEpoch monotonically: the hook stores it on the
// committing goroutine while no subscription exists, the dispatcher when
// it folds or rebuilds, and an event still queued for the dispatcher is
// older than one the hook has recorded since.
func (m *Manager) storeLastEpoch(k uint64) {
	for {
		cur := m.lastEpoch.Load()
		if k <= cur || m.lastEpoch.CompareAndSwap(cur, k) {
			return
		}
	}
}

func (m *Manager) dispatch() {
	defer m.wg.Done()
	for {
		select {
		case <-m.stop:
			return
		case it := <-m.items:
			// After an overflow the rebuild horizon covers this event too.
			if m.lost.Swap(false) || it.sync == nil && it.ev.Kind == engine.CommitReset {
				m.rebuild()
			} else if it.sync == nil && it.resets == m.resets.Load() {
				m.applyEvent(it.ev)
			}
			if rows := it.ev.Rows; cap(rows) > 0 && cap(rows) <= freeRowsKeep {
				m.free.Put(rows[:0]) // for the hook
			}
			if it.sync != nil {
				close(it.sync)
			}
		}
	}
}

// applyEvent folds one commit into every subscription at the event's
// own horizon, so a burst of commits yields one exact delta per commit
// rather than a merged diff. The loop is rows-outer: each touched row's
// annotation is resolved once on either side of the commit — At(since)
// before, At(ev.Epoch) after — and offered to the what-ifs and to the
// watches on its relation, which record how it moves them; then every
// moved subscription's frame is assembled from the commit's rows.
func (m *Manager) applyEvent(ev engine.CommitEvent) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.storeLastEpoch(ev.Epoch)
	// Every subscription the event applies to has folded in the epoch
	// before it, so they share one before-image: the newest of their
	// epochs.
	since, active := uint64(0), false
	for _, s := range m.subs {
		if s.since < ev.Epoch {
			active, since = true, max(since, s.since)
		}
	}
	if !active {
		return
	}
	f, rels := &m.fold, m.d.Schema().Names()
	before, after := m.d.At(since), m.d.At(ev.Epoch)
	f.reset(after)
	defer f.reset(nil) // the fold pins no engine between commits
	for _, ref := range ev.Rows {
		// A ref to no row comes from an engine a reset has just replaced:
		// the rebuild it queued covers the event.
		var ok bool
		if f.tup, ok = engine.RowTuple(after, ref, f.tup); ok {
			f.add(slices.Index(rels, ref.Rel), ref, f.tup)
		}
	}
	f.sort()
	fanout := uint64(0)
	for _, i := range f.order {
		r := &f.rows[i]
		watches := m.watches[r.Rel]
		if len(m.whatifs)+len(watches) == 0 {
			continue
		}
		t := f.tuple(r)
		r.before, r.after = before.Annotation(r.Rel, t), after.Annotation(r.Rel, t)
		for _, s := range m.whatifs {
			if s.since < ev.Epoch {
				fanout++
				s.move(i, r.before != nil && s.kern.Eval(r.before), r.after != nil && s.kern.Eval(r.after), false)
			}
		}
		was, is := r.before != nil && !r.before.IsZero(), r.after != nil && !r.after.IsZero()
		for _, s := range watches {
			if s.since < ev.Epoch && s.pat.Matches(t) {
				fanout++
				s.move(i, was, is, was && is && !r.before.Equal(r.after))
			}
		}
	}
	m.fanout.Add(fanout)
	for _, s := range m.subs {
		if s.since >= ev.Epoch {
			continue
		}
		s.since = ev.Epoch
		m.countMisses(s)
		if len(s.added)+len(s.removed)+len(s.changed) == 0 {
			continue
		}
		m.deltas.Add(1)
		if !s.needResync { // else the pending snapshot will include this delta
			lists := []rowList{{"added", s.added, true}, {"removed", s.removed, false}, {"changed", s.changed, true}}
			frame, fail := (*[]byte)(nil), f.unframeable(s, lists)
			if fail == "" {
				frame = frames.Get()
				*frame, _, _ = f.frame((*frame)[:0], nil, "delta", s, ev.Epoch, ev.Label, lists)
			}
			m.send(s, frame, fail)
		}
		s.added, s.removed, s.changed = s.added[:0], s.removed[:0], s.changed[:0]
	}
}

// countMisses moves the nodes s's kernel computed since the last call
// into the respecNodes counter.
func (m *Manager) countMisses(s *sub) {
	if s.kern != nil {
		m.respec.Add(s.kern.Misses() - s.counted)
		s.counted = s.kern.Misses()
	}
}

// send queues an encoded frame on s's connection. A full queue drops
// the frame and schedules a resync; a frame that could not be built
// (fail says why) schedules the error frame that ends s.
func (m *Manager) send(s *sub, frame *[]byte, fail string) {
	if fail == "" {
		select {
		case s.conn.ch <- frame:
			m.frameBytes.Add(uint64(len(*frame)))
			return
		default:
			putFrame(frame)
			m.cdrops.Add(1)
		}
	}
	s.fail, s.needResync = fail, true
	s.conn.poke()
}

// rebuild moves every subscription to the live horizon and flags it
// for resync, after a queue overflow or an engine swap (CommitReset).
// The resync frame is built when the client reads it.
func (m *Manager) rebuild() {
	m.rebuilds.Add(1)
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.d.Horizon()
	for _, s := range m.subs {
		s.since, s.needResync = h, true
		s.conn.poke()
	}
	m.storeLastEpoch(h)
}

// Sync blocks until the dispatcher has folded in every event enqueued
// before the call (repairing any overflow first). Tests use it as a
// barrier between ApplyAll and state assertions.
func (m *Manager) Sync() {
	ch := make(chan struct{})
	select {
	case m.items <- item{sync: ch}:
	case <-m.stop:
		return
	}
	select {
	case <-ch:
	case <-m.stop:
	}
}

// Close uninstalls the hook, stops the dispatcher and closes every
// connection. Idempotent.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	conns := make([]*Conn, 0, len(m.conns))
	for c := range m.conns {
		conns = append(conns, c)
	}
	m.mu.Unlock()
	m.d.SetCommitHook(nil)
	close(m.stop)
	m.wg.Wait()
	for _, c := range conns {
		c.Close()
	}
}

// Stats is the subscriptions section of /v1/stats. Field names are
// stable (documented in DESIGN.md).
type Stats struct {
	Subscriptions int `json:"subscriptions"` // live registrations
	Connections   int `json:"connections"`
	// Events counts commit events delivered to the hook, EventDrops
	// those dropped on queue overflow (each costs one rebuild).
	Events     uint64 `json:"events"`
	EventDrops uint64 `json:"eventDrops"`
	// Deltas counts non-empty per-subscription deltas produced, Fanout
	// the (row, subscription) re-specializations performed.
	Deltas uint64 `json:"deltas"`
	Fanout uint64 `json:"fanout"`
	// FrameDrops counts frames dropped on slow connections, Resyncs the
	// snapshot (or error) frames served to repair them, Rebuilds the
	// moves to the live horizon (overflow, engine swap).
	FrameDrops uint64 `json:"frameDrops"`
	Resyncs    uint64 `json:"resyncs"`
	Rebuilds   uint64 `json:"rebuilds"`
	LagEpochs  uint64 `json:"lagEpochs"` // committed epochs not yet folded in
	// RespecNodes counts the expression nodes the what-ifs' kernels had
	// to compute (memo misses, acks and resyncs included), FrameBytes
	// the encoded frame bytes queued or handed to readers.
	RespecNodes uint64 `json:"respecNodes"`
	FrameBytes  uint64 `json:"frameBytes"`
}

// StatsSnapshot reports the manager's counters.
func (m *Manager) StatsSnapshot() Stats {
	m.mu.Lock()
	nsubs, nconns := len(m.subs), len(m.conns)
	h := m.d.Horizon()
	m.mu.Unlock()
	st := Stats{
		Subscriptions: nsubs, Connections: nconns,
		Events: m.events.Load(), EventDrops: m.qdrops.Load(),
		Deltas: m.deltas.Load(), Fanout: m.fanout.Load(),
		FrameDrops: m.cdrops.Load(), Resyncs: m.resyncs.Load(), Rebuilds: m.rebuilds.Load(),
		RespecNodes: m.respec.Load(), FrameBytes: m.frameBytes.Load(),
	}
	if last := m.lastEpoch.Load(); h > last {
		st.LagEpochs = h - last
	}
	return st
}

// Conn is one client connection: a bounded queue of encoded frames the
// dispatcher fans out to, plus the wakeup plumbing for pull-based
// resync. A Conn may carry any number of subscriptions.
type Conn struct {
	m    *Manager
	ch   chan *[]byte
	held bytes.Buffer // where Next returns frames
	// note wakes a blocked Next when a subscription was flagged for
	// resync without a frame making it onto ch.
	note   chan struct{}
	closed chan struct{}
	once   sync.Once
}

// Attach registers a new connection; buffer bounds its frame queue
// (<= 0 selects the default, anything above MaxConnBuffer that).
// Returns nil if the manager is closed.
func (m *Manager) Attach(buffer int) *Conn {
	if buffer <= 0 {
		buffer = defaultConnBuffer
	}
	c := &Conn{m: m, ch: make(chan *[]byte, min(buffer, MaxConnBuffer)), note: make(chan struct{}, 1), closed: make(chan struct{})}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.conns[c] = struct{}{}
	return c
}

func (c *Conn) poke() {
	select {
	case c.note <- struct{}{}:
	default:
	}
}

// setSubs installs a new subscription list and rebuilds the dispatch
// indexes. Callers shrink the list with slices.DeleteFunc, which zeroes
// the slots past the new length, so a removed subscription (and the
// connection behind it) is collectable at once.
func (m *Manager) setSubs(subs []*sub) {
	m.subs = subs
	m.nsubs.Store(int64(len(subs)))
	m.whatifs, m.watches = nil, make(map[string][]*sub)
	for _, s := range subs {
		if s.kern != nil {
			m.whatifs = append(m.whatifs, s)
		} else {
			m.watches[s.spec.Rel] = append(m.watches[s.spec.Rel], s)
		}
	}
}

// Validate checks specs as Subscribe would, registering nothing, so a
// bad one is refused before any ack streams.
func (m *Manager) Validate(specs []Spec) error {
	for i, sp := range specs {
		if _, err := compile(m.d.Schema(), sp); err != nil {
			return err
		}
		if sp.ID != "" && slices.ContainsFunc(specs[:i], func(o Spec) bool { return o.ID == sp.ID }) {
			return fmt.Errorf("duplicate subscription id %q", sp.ID)
		}
	}
	return nil
}

// Subscribe registers a subscription on the connection and returns its
// encoded ack frame carrying the initial state. The caller must
// deliver the ack before pumping Next: every queued frame for the ID
// reflects commits after the ack's epoch. An ack that cannot be framed
// registers nothing and fails with an *UnframeableError.
func (m *Manager) Subscribe(c *Conn, sp Spec) ([]byte, error) {
	var ack bytes.Buffer
	err := m.SubscribeTo(c, sp, &ack)
	return ack.Bytes(), err
}

// SubscribeTo is Subscribe with the ack written to w a frameKeep window
// at a time, the manager's lock released; a failure writes nothing.
func (m *Manager) SubscribeTo(c *Conn, sp Spec, w io.Writer) error {
	render, err := m.register(c, sp)
	if err != nil {
		return err
	}
	return render(w)
}

// register registers sp if its ack, collected at the live horizon, can
// be framed, and returns the ack's render.
func (m *Manager) register(c *Conn, sp Spec) (func(io.Writer) error, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	if sp.ID == "" {
		m.seq++
		sp.ID = fmt.Sprintf("sub-%d", m.seq)
	}
	for _, s := range m.subs {
		if s.conn == c && s.spec.ID == sp.ID {
			return nil, fmt.Errorf("duplicate subscription id %q", sp.ID)
		}
	}
	s, err := compile(m.d.Schema(), sp)
	if err != nil {
		return nil, err
	}
	// Counted before the horizon is read, so the hook queues every commit
	// past it even when s is the first subscription.
	m.nsubs.Add(1)
	s.since, s.conn = m.d.Horizon(), c
	render, fail := m.collect("ack", s)
	if fail != "" {
		m.nsubs.Add(-1)
		return nil, &UnframeableError{ID: sp.ID, Reason: fail, Frame: appendError(nil, s, fail)}
	}
	m.setSubs(append(m.subs, s))
	return render, nil
}

// Unsubscribe removes one subscription from the connection.
func (m *Manager) Unsubscribe(c *Conn, id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := len(m.subs)
	m.setSubs(slices.DeleteFunc(m.subs, func(s *sub) bool { return s.conn == c && s.spec.ID == id }))
	return len(m.subs) < n
}

// takeResync collects the pending resync of the connection's first
// stale subscription, if any — or, if its frames can no longer be
// built, the error frame that ends it — and returns its render.
// Generated at read time: a client behind on a quiet stream still
// repairs on its next read. A frame queued on c goes first — the
// dispatcher queued it under the lock, before any flag it raised since —
// so the resync is never followed by an older delta.
func (m *Manager) takeResync(c *Conn) func(io.Writer) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(c.ch) > 0 {
		return nil
	}
	for _, s := range m.subs {
		if s.conn != c || !s.needResync {
			continue
		}
		s.needResync = false
		m.resyncs.Add(1)
		render, fail := (func(io.Writer) error)(nil), s.fail
		if fail == "" {
			if render, fail = m.collect("resync", s); fail == "" {
				return render
			}
		}
		m.setSubs(slices.DeleteFunc(m.subs, func(x *sub) bool { return x == s }))
		frame := appendError(nil, s, fail)
		return func(w io.Writer) error { _, err := w.Write(frame); return err }
	}
	return nil
}

// Next returns the connection's next frame in its wire encoding — one
// JSON object (see Frame) and a newline — blocking until one is
// available or ctx is done. The bytes are valid until the next call:
// Next is for one reader at a time. Resync frames are generated here,
// so a stale client repairs even when no further commits arrive.
func (c *Conn) Next(ctx context.Context) ([]byte, error) {
	if c.held.Reset(); c.held.Cap() > frameKeep { // a large resync's buffer is not kept
		c.held = bytes.Buffer{}
	}
	if err := c.NextTo(ctx, &c.held); err != nil {
		return nil, err
	}
	return c.held.Bytes(), nil
}

// NextTo writes the connection's next frame to w, waiting as Next does;
// a resync goes a frameKeep window at a time, the manager's lock
// released.
func (c *Conn) NextTo(ctx context.Context, w io.Writer) error {
	for {
		var frame *[]byte
		select {
		case frame = <-c.ch:
		default:
			if render := c.m.takeResync(c); render != nil {
				return render(w)
			}
			select {
			case frame = <-c.ch:
			case <-c.note:
				continue
			case <-ctx.Done():
				return ctx.Err()
			case <-c.closed:
				return ErrClosed
			}
		}
		_, err := w.Write(*frame)
		putFrame(frame)
		return err
	}
}

// Close detaches the connection and removes its subscriptions.
// Idempotent; a blocked Next returns ErrClosed.
func (c *Conn) Close() {
	c.once.Do(func() {
		m := c.m
		m.mu.Lock()
		delete(m.conns, c)
		m.setSubs(slices.DeleteFunc(m.subs, func(s *sub) bool { return s.conn == c }))
		m.mu.Unlock()
		close(c.closed)
	})
}
