// Package spool is the settlement machine the usage and micropay
// pipelines share. A workload validates its intake into rows; the core
// journals them to a spool table on a WAL-backed store, queues their
// keys per (shard, drawer) group, and hands batches of up to BatchSize
// rows to the workload's settle callback — from background workers, or
// from SettleOnce/Drain in synchronous mode. A row leaves the spool when
// it settles, or stays parked with a reason when settlement refuses it
// for good; resubmitting a parked row's key revives it.
//
// The contract every workload inherits:
//
//   - Durable intake: Submit returns only after the rows' spool
//     transaction committed, and New re-queues every pending row.
//   - Backpressure: queued, in-flight and reserved rows together never
//     exceed MaxPending; Submit refuses the whole batch instead.
//   - Unfinished rows requeue: every row of a batch the settle callback
//     did not finish goes back on the queue, whether or not it failed.
//   - Abandon stops cold: a settle error wrapping ErrAbandoned (a crash
//     hook's simulated process death) ends the pass and requeues
//     nothing; recovery rebuilds the queue from the spool.
package spool

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gridbank/internal/accounts"
	"gridbank/internal/db"
	"gridbank/internal/obs"
)

// ErrAbandoned marks a crash-hook abandon: wrap it (%w) in a settle or
// intake error to stop processing as if the process died there.
var ErrAbandoned = errors.New("spool: processing abandoned by crash hook")

// Row states every workload's spool rows share.
const (
	StatePending = "pending"
	StateFailed  = "failed"
)

// Row is a workload's spool row, stored as its JSON encoding under
// SpoolKey. R is the row type itself.
type Row[R any] interface {
	// SpoolKey is the row's spool key, its idempotency key.
	SpoolKey() string
	// SpoolDrawer is the account the row draws on; with its shard it
	// picks the batch group.
	SpoolDrawer() accounts.ID
	// Pending reports whether the row awaits settlement (false: parked).
	Pending() bool
	// Parked returns the row parked failed with the reason.
	Parked(reason string) R
	// EnqueuedAt is the row's intake time.
	EnqueuedAt() time.Time
}

// Group buckets pending rows for batching: everything drawn on one
// account settles on that account's shard.
type Group struct {
	Shard  int
	Drawer accounts.ID
}

// Config configures a Pipeline: the workload's tuning (defaults
// applied here) and the parts only the workload knows.
type Config[R Row[R]] struct {
	// Name prefixes errors, log lines and metric names ("usage").
	Name string
	// Spool and Table hold the rows. Spool is required.
	Spool *db.Store
	Table string
	// ShardFor places a drawer on its ledger shard.
	ShardFor func(accounts.ID) int

	BatchSize     int           // default 64
	Workers       int           // default 2; < 0 starts none
	MaxPending    int           // default 4096
	RetryInterval time.Duration // default 25ms
	Now           func() time.Time
	Log           *obs.Logger
	Obs           *obs.Registry
	// BatchMetric names the taken-batch-size histogram under Name.
	BatchMetric string

	// The workload's sentinel errors, returned wrapped with detail.
	ErrClosed, ErrOverloaded, ErrDrainStalled, ErrDrainTimeout error

	// Settle settles one batch. It finishes rows through Batch.Cleanup
	// or Batch.Fail; the rest are requeued.
	Settle func(*Batch[R]) error
	// Terminal classifies settlement errors a retry cannot cure, for
	// Batch.Fail. Fail-stopped storage is never terminal.
	Terminal func(error) bool
	// Settled, when set, reports that a row's key already settled
	// outside the spool; intake counts it a duplicate.
	Settled func(R) bool
	// Revive, when set, builds the row that replaces a parked one on
	// resubmit; otherwise the fresh row replaces it as is.
	Revive func(parked, fresh R) R
	// Recovered, when set, sees every row New decodes.
	Recovered func(R)
	// Spooled, when set, fires after an intake commit with the first
	// accepted row. An error returns before the rows are queued; they
	// are durable and settle after recovery.
	Spooled func(R) error
}

// Pipeline is the shared spool-and-settle core. Build it with New, then
// Start it.
type Pipeline[R Row[R]] struct {
	cfg Config[R]

	mu       sync.Mutex
	queue    map[Group][]string
	reserved int // Submit capacity held while its spool write runs
	inflight int
	failed   int
	lastErr  string
	closed   bool

	// Outcome counters the workloads report in their Stats.
	Duplicates atomic.Uint64
	Rejected   atomic.Uint64
	Batches    atomic.Uint64
	CrossShard atomic.Uint64

	// Telemetry handles (nil no-ops without Obs). The queue and
	// inflight gauges mirror the mu-guarded state incrementally so
	// scrapes never take the lock.
	mQueue      *obs.Gauge
	mInflight   *obs.Gauge
	mBatch      *obs.Histogram
	mLatency    *obs.Histogram
	mParked     *obs.Counter
	mOverloaded *obs.Counter

	kick chan struct{}
	stop chan struct{}
	wg   sync.WaitGroup
}

// New ensures the spool table and re-queues every pending row a crash
// left behind. Workers do not run until Start, so the workload can
// finish its own recovery first.
func New[R Row[R]](cfg Config[R]) (*Pipeline[R], error) {
	if cfg.Spool == nil {
		return nil, fmt.Errorf("%s: pipeline requires a spool store", cfg.Name)
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.Workers < 0 {
		cfg.Workers = 0 // synchronous mode: SettleOnce/Drain only
	}
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = 4096
	}
	if cfg.RetryInterval <= 0 {
		cfg.RetryInterval = 25 * time.Millisecond
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	m := cfg.Name + "."
	p := &Pipeline[R]{
		cfg:   cfg,
		queue: make(map[Group][]string),
		kick:  make(chan struct{}, cfg.Workers+1),
		stop:  make(chan struct{}),

		mQueue:      cfg.Obs.Gauge(m + "queue_depth"),
		mInflight:   cfg.Obs.Gauge(m + "inflight"),
		mBatch:      cfg.Obs.Histogram(m + cfg.BatchMetric),
		mLatency:    cfg.Obs.Histogram(m + "settle_latency"),
		mParked:     cfg.Obs.Counter(m + "parked"),
		mOverloaded: cfg.Obs.Counter(m + "overloaded"),
	}
	if err := cfg.Spool.EnsureTable(cfg.Table); err != nil {
		return nil, err
	}
	if err := p.recover(); err != nil {
		return nil, err
	}
	return p, nil
}

// Start launches the settlement workers.
func (p *Pipeline[R]) Start() {
	for i := 0; i < p.cfg.Workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
}

func (p *Pipeline[R]) group(row R) Group {
	d := row.SpoolDrawer()
	return Group{Shard: p.cfg.ShardFor(d), Drawer: d}
}

func (p *Pipeline[R]) decode(key string, raw []byte) (R, error) {
	var row R
	if err := json.Unmarshal(raw, &row); err != nil {
		return row, fmt.Errorf("%s: corrupt spool row %s: %w", p.cfg.Name, key, err)
	}
	return row, nil
}

// recover re-queues every pending spool row and counts the parked ones.
func (p *Pipeline[R]) recover() error {
	var scanErr error
	err := p.cfg.Spool.Scan(p.cfg.Table, func(key string, value []byte) bool {
		row, err := p.decode(key, value)
		if err != nil {
			scanErr = err
			return false
		}
		if p.cfg.Recovered != nil {
			p.cfg.Recovered(row)
		}
		if row.Pending() {
			k := p.group(row)
			p.queue[k] = append(p.queue[k], row.SpoolKey())
			p.mQueue.Inc()
		} else {
			p.failed++
		}
		return true
	})
	if err != nil {
		return err
	}
	return scanErr
}

// Close stops the workers. Pending rows stay durably spooled and settle
// when a new pipeline is built over the same stores.
func (p *Pipeline[R]) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	close(p.stop)
	p.wg.Wait()
	return nil
}

// queuedLocked counts queued rows. Caller holds mu.
func (p *Pipeline[R]) queuedLocked() int {
	n := 0
	for _, keys := range p.queue {
		n += len(keys)
	}
	return n
}

// Status is the core's share of a workload's Stats.
type Status struct {
	Pending    int // reserved + queued + in flight
	QueueDepth int
	InFlight   int
	Failed     int
	Duplicates uint64
	Rejected   uint64
	Batches    uint64
	CrossShard uint64
	Workers    int
	BatchSize  int
	LastError  string
}

// Status reports the pipeline's observable state.
func (p *Pipeline[R]) Status() Status {
	p.mu.Lock()
	queued := p.queuedLocked()
	s := Status{
		Pending:    p.reserved + p.inflight + queued,
		QueueDepth: queued,
		InFlight:   p.inflight,
		Failed:     p.failed,
		LastError:  p.lastErr,
	}
	p.mu.Unlock()
	s.Duplicates = p.Duplicates.Load()
	s.Rejected = p.Rejected.Load()
	s.Batches = p.Batches.Load()
	s.CrossShard = p.CrossShard.Load()
	s.Workers = p.cfg.Workers
	s.BatchSize = p.cfg.BatchSize
	return s
}

// Intake is the outcome of a committed intake transaction.
type Intake struct {
	Accepted   int
	Duplicates int
}

// Submit durably spools rows in one transaction and queues them for
// settlement. A row whose key is spooled and pending, or already
// settled, is a duplicate; a parked one is revived. A nil Intake means
// nothing committed; a non-nil Intake with an error means the rows are
// durable but Spooled refused to let them be queued.
func (p *Pipeline[R]) Submit(rows []R) (*Intake, error) {
	if len(rows) == 0 {
		return &Intake{}, nil
	}
	// Backpressure: reserve capacity before any durable write, so
	// concurrent submitters cannot jointly overshoot the bound.
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, p.cfg.ErrClosed
	}
	if pending := p.reserved + p.inflight + p.queuedLocked(); pending+len(rows) > p.cfg.MaxPending {
		p.mu.Unlock()
		p.mOverloaded.Inc()
		return nil, fmt.Errorf("%w: %d pending + %d offered exceeds bound %d",
			p.cfg.ErrOverloaded, pending, len(rows), p.cfg.MaxPending)
	}
	p.reserved += len(rows)
	p.mu.Unlock()
	held := len(rows)
	defer func() {
		p.mu.Lock()
		p.reserved -= held
		p.mu.Unlock()
	}()

	// A parked row never settled, so a fresh submission of its key
	// revives it for another attempt — the retry path after an operator
	// fixes the underlying condition (e.g. funds the drawer).
	var accepted []R
	var dups, revived int
	err := p.cfg.Spool.Update(func(tx *db.Tx) error {
		accepted, dups, revived = accepted[:0], 0, 0 // Update may retry fn
		for _, row := range rows {
			key := row.SpoolKey()
			raw, err := tx.Get(p.cfg.Table, key)
			parked := false
			switch {
			case err == nil:
				cur, err := p.decode(key, raw)
				if err != nil {
					return err
				}
				if cur.Pending() {
					dups++
					continue
				}
				if p.cfg.Revive != nil {
					row = p.cfg.Revive(cur, row)
				}
				parked = true
			case !errors.Is(err, db.ErrNoRecord):
				return err
			}
			if p.cfg.Settled != nil && p.cfg.Settled(row) {
				dups++
				continue
			}
			out, err := json.Marshal(&row)
			if err != nil {
				return err
			}
			if err := tx.Put(p.cfg.Table, key, out); err != nil {
				return err
			}
			if parked {
				revived++
			}
			accepted = append(accepted, row)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("%s: spooling intake batch: %w", p.cfg.Name, err)
	}
	if revived > 0 {
		p.mu.Lock()
		p.failed -= revived
		p.mu.Unlock()
	}
	p.Duplicates.Add(uint64(dups))
	in := &Intake{Accepted: len(accepted), Duplicates: dups}
	if len(accepted) == 0 {
		return in, nil
	}
	if p.cfg.Spooled != nil {
		if err := p.cfg.Spooled(accepted[0]); err != nil {
			return in, err
		}
	}
	// The reservation turns into queue entries in one step, so Pending
	// never counts a row twice.
	p.mu.Lock()
	for _, row := range accepted {
		k := p.group(row)
		p.queue[k] = append(p.queue[k], row.SpoolKey())
	}
	p.reserved -= held
	held = 0
	p.mu.Unlock()
	p.mQueue.Add(int64(len(accepted)))
	p.kickWorkers()
	return in, nil
}

func (p *Pipeline[R]) kickWorkers() {
	select {
	case p.kick <- struct{}{}:
	default:
	}
}

func (p *Pipeline[R]) worker() {
	defer p.wg.Done()
	t := time.NewTicker(p.cfg.RetryInterval)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-p.kick:
		case <-t.C:
		}
		if _, err := p.drainPass(); err != nil {
			p.mu.Lock()
			p.lastErr = err.Error()
			p.mu.Unlock()
			p.cfg.Log.Warn(p.cfg.Name+" settlement fault", "err", err)
		}
	}
}

// SettleOnce runs one synchronous settlement pass over every group that
// had pending work when the pass started, and reports how many rows
// reached a terminal outcome (settled, deduplicated or parked). Groups a
// transient fault leaves pending are retried on the next pass, not
// within this one.
func (p *Pipeline[R]) SettleOnce() (int, error) {
	return p.drainPass()
}

func (p *Pipeline[R]) drainPass() (int, error) {
	p.mu.Lock()
	groups := make([]Group, 0, len(p.queue))
	for k := range p.queue {
		groups = append(groups, k)
	}
	p.mu.Unlock()
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].Shard != groups[j].Shard {
			return groups[i].Shard < groups[j].Shard
		}
		return groups[i].Drawer < groups[j].Drawer
	})
	var done int
	var firstErr error
	for _, k := range groups {
		for {
			keys := p.takeGroup(k)
			if len(keys) == 0 {
				break
			}
			n, requeued, err := p.settle(k, keys)
			done += n
			if err != nil && firstErr == nil {
				firstErr = err
			}
			if err != nil || requeued {
				break // leave this group for the next pass
			}
		}
		if errors.Is(firstErr, ErrAbandoned) {
			break // simulated death: stop the whole pass
		}
	}
	return done, firstErr
}

// takeGroup pops up to BatchSize keys from one group into the in-flight
// count.
func (p *Pipeline[R]) takeGroup(k Group) []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	keys := p.queue[k]
	if len(keys) == 0 {
		delete(p.queue, k)
		return nil
	}
	n := min(len(keys), p.cfg.BatchSize)
	taken := keys[:n:n]
	if rest := keys[n:]; len(rest) == 0 {
		delete(p.queue, k)
	} else {
		p.queue[k] = rest
	}
	p.inflight += n
	p.mQueue.Add(int64(-n))
	p.mInflight.Add(int64(n))
	p.mBatch.Observe(int64(n))
	return taken
}

// requeue returns keys a batch left unfinished to the queue.
func (p *Pipeline[R]) requeue(k Group, keys []string) {
	if len(keys) == 0 {
		return
	}
	p.mu.Lock()
	p.queue[k] = append(p.queue[k], keys...)
	p.mu.Unlock()
	p.mQueue.Add(int64(len(keys)))
}

// settle loads one taken batch and runs the workload's callback on it,
// returning how many rows it finished and whether any went back on the
// queue.
func (p *Pipeline[R]) settle(k Group, keys []string) (int, bool, error) {
	defer func() {
		p.mu.Lock()
		p.inflight -= len(keys)
		p.mu.Unlock()
		p.mInflight.Add(int64(-len(keys)))
	}()
	b := &Batch[R]{Group: k, p: p, Rows: make([]R, 0, len(keys))}
	// Keys whose row vanished were finished by an earlier generation's
	// cleanup; parked rows wait for a resubmit.
	for _, key := range keys {
		raw, err := p.cfg.Spool.Get(p.cfg.Table, key)
		if errors.Is(err, db.ErrNoRecord) {
			continue
		}
		var row R
		if err == nil {
			row, err = p.decode(key, raw)
		}
		if err != nil {
			p.requeue(k, keys)
			return 0, true, err
		}
		if row.Pending() {
			b.Rows = append(b.Rows, row)
		}
	}
	if len(b.Rows) == 0 {
		return 0, false, nil
	}
	// Rows the callback left unfinished — after a transient fault, or
	// without one — go back on the queue; an abandon keeps nothing.
	err := p.cfg.Settle(b)
	requeued := false
	if !errors.Is(err, ErrAbandoned) && (err != nil || len(b.done) != len(b.Rows)) {
		rest := b.unfinished()
		p.requeue(k, rest)
		requeued = len(rest) > 0
	}
	return len(b.done), requeued, err
}

// Batch is one group's pending rows, taken for settlement.
type Batch[R Row[R]] struct {
	Group Group
	Rows  []R

	p    *Pipeline[R]
	done []string // keys Cleanup finished or parked
}

// unfinished lists the keys of rows Cleanup never reached.
func (b *Batch[R]) unfinished() []string {
	done := make(map[string]bool, len(b.done))
	for _, key := range b.done {
		done[key] = true
	}
	var keys []string
	for _, row := range b.Rows {
		if key := row.SpoolKey(); !done[key] {
			keys = append(keys, key)
		}
	}
	return keys
}

// Cleanup finishes rows durably in one spool transaction: finished rows
// leave the spool, and parked rows (built with Row.Parked) stay with
// their reason for the operator.
func (b *Batch[R]) Cleanup(finished, parked []R) error {
	if len(finished) == 0 && len(parked) == 0 {
		return nil
	}
	p := b.p
	err := p.cfg.Spool.Update(func(tx *db.Tx) error {
		for _, row := range finished {
			ok, err := tx.Exists(p.cfg.Table, row.SpoolKey())
			if err != nil {
				return err
			}
			if ok {
				if err := tx.Delete(p.cfg.Table, row.SpoolKey()); err != nil {
					return err
				}
			}
		}
		for _, row := range parked {
			raw, err := json.Marshal(&row)
			if err != nil {
				return err
			}
			if err := tx.Put(p.cfg.Table, row.SpoolKey(), raw); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("%s: spool cleanup: %w", p.cfg.Name, err)
	}
	now := p.cfg.Now()
	for _, row := range finished {
		p.mLatency.ObserveDuration(now.Sub(row.EnqueuedAt()))
		b.done = append(b.done, row.SpoolKey())
	}
	for _, row := range parked {
		b.done = append(b.done, row.SpoolKey())
	}
	if len(parked) > 0 {
		p.mu.Lock()
		p.failed += len(parked)
		p.mu.Unlock()
		p.mParked.Add(int64(len(parked)))
	}
	return nil
}

// Fail parks rows with err as their reason when err is terminal, and
// returns the cleanup's outcome. Any other err comes back unchanged for
// the settle callback to return.
func (b *Batch[R]) Fail(rows []R, err error) error {
	if errors.Is(err, db.ErrStorageFailed) || !b.p.cfg.Terminal(err) {
		// Fail-stopped storage is an instance outage, not a verdict on
		// the row, even when it surfaced wrapped in a business error.
		return err
	}
	parked := make([]R, len(rows))
	for i, row := range rows {
		parked[i] = row.Parked(err.Error())
	}
	return b.Cleanup(nil, parked)
}

// Drain blocks until every pending row reaches a terminal outcome, or
// the timeout (default 30s) elapses. With background workers it kicks
// and waits; in synchronous mode (Workers < 0) it runs settlement passes
// itself and reports ErrDrainStalled if a full pass makes no progress.
func (p *Pipeline[R]) Drain(timeout time.Duration) error {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	deadline := time.Now().Add(timeout)
	for {
		p.mu.Lock()
		pending := p.reserved + p.inflight + p.queuedLocked()
		closed := p.closed
		p.mu.Unlock()
		switch {
		case closed:
			return p.cfg.ErrClosed
		case pending == 0:
			return nil
		case time.Now().After(deadline):
			return fmt.Errorf("%w: %d still pending", p.cfg.ErrDrainTimeout, pending)
		case p.cfg.Workers > 0:
			p.kickWorkers()
			time.Sleep(2 * time.Millisecond)
			continue
		}
		n, err := p.drainPass()
		if err != nil {
			return err
		}
		if n > 0 {
			continue
		}
		// Only settleable work counts toward a stall verdict: a
		// concurrent Submit's reservation is progress another goroutine
		// is making, not work this loop failed on.
		p.mu.Lock()
		settleable := p.inflight + p.queuedLocked()
		p.mu.Unlock()
		if settleable > 0 {
			return fmt.Errorf("%w: %d pending", p.cfg.ErrDrainStalled, settleable)
		}
		time.Sleep(time.Millisecond) // reservations only: wait them out
	}
}
