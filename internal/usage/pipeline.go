package usage

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"gridbank/internal/accounts"
	"gridbank/internal/db"
	"gridbank/internal/obs"
	"gridbank/internal/rur"
	"gridbank/internal/shard"
	"gridbank/internal/spool"
)

// Spool-side and shard-side table names.
const (
	tableSpool   = "usage_spool"
	tableSettled = "usage_settled"
)

// Config configures a Pipeline.
type Config struct {
	// Ledger is the settlement target. Required. Must implement
	// CrossShardLedger when it spans more than one shard.
	Ledger Ledger
	// Spool is the intake store. Required. Give it a WAL-backed journal
	// for durable intake; the pipeline recovers pending charges from it
	// at construction.
	Spool *db.Store
	// BatchSize caps how many charges coalesce into one ledger
	// transaction (default 64).
	BatchSize int
	// Workers is the number of background settlement goroutines
	// (default 2). Workers < 0 starts none: settlement then runs only
	// through SettleOnce/Drain — the deterministic mode crash tests use.
	Workers int
	// MaxPending bounds the intake queue: a Submit that would push the
	// pending count past it fails with ErrOverloaded (default 4096).
	MaxPending int
	// RetryInterval is how often idle workers re-check for work missed
	// by kicks, and the pace of transient-failure retries (default 25ms).
	RetryInterval time.Duration
	// Now supplies timestamps; defaults to time.Now.
	Now func() time.Time
	// Log records transient settlement faults; nil discards them.
	// Configured here (not assigned after New) because recovery can
	// hand workers settleable rows before New even returns.
	Log *obs.Logger
	// Obs names the pipeline's instruments (usage.queue_depth,
	// usage.inflight, usage.batch_size, usage.settled, usage.parked,
	// usage.overloaded, usage.settle_latency). Nil leaves telemetry off.
	// Configured here, not after New, for the same reason as Log:
	// workers may be settling before New returns.
	Obs *obs.Registry
	// CrashHook installs fault injection before the workers start; see
	// Pipeline.CrashHook.
	CrashHook func(b Boundary, chargeID string) error
}

// Pipeline is the batched asynchronous settlement engine. Construct
// with New — which also runs crash recovery — and Close when done.
// Constructing the pipeline must happen before the ledger serves
// traffic, so recovered transaction-ID pins reseed the allocator ahead
// of any fresh allocation. Queueing, batching, backpressure, parking
// and draining are the shared spool core's; this type supplies RUR
// pricing at intake, the settled-marker dedup, and the settlement of
// one batch.
type Pipeline struct {
	core  *spool.Pipeline[spoolRow]
	led   Ledger
	cross CrossShardLedger // nil when the ledger cannot cross shards
	spool *db.Store
	now   func() time.Time

	// CrashHook fires after every durable settlement step with the
	// boundary and a representative charge ID; returning an error
	// abandons processing at that point (simulated process death).
	// Test instrumentation only. Prefer Config.CrashHook; direct
	// reassignment is safe only in synchronous mode (Workers < 0).
	CrashHook func(b Boundary, chargeID string) error

	settled  atomic.Uint64
	mSettled *obs.Counter
}

// New builds a pipeline over the ledger and spool store, recovers any
// charges a crash left pending (re-queueing them and reseeding the
// ledger's transaction-ID allocator above every pinned ID), and starts
// the settlement workers.
func New(cfg Config) (*Pipeline, error) {
	if cfg.Ledger == nil {
		return nil, errors.New("usage: pipeline requires a ledger")
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	cross, _ := cfg.Ledger.(CrossShardLedger)
	if cfg.Ledger.Shards() > 1 && cross == nil {
		return nil, errors.New("usage: a multi-shard ledger must implement CrossShardLedger")
	}
	p := &Pipeline{
		led:       cfg.Ledger,
		cross:     cross,
		spool:     cfg.Spool,
		now:       cfg.Now,
		CrashHook: cfg.CrashHook,
		mSettled:  cfg.Obs.Counter("usage.settled"),
	}
	for i := 0; i < p.led.Shards(); i++ {
		if err := p.led.ShardStore(i).EnsureTable(tableSettled); err != nil {
			return nil, err
		}
	}
	var maxPin uint64
	core, err := spool.New(spool.Config[spoolRow]{
		Name: "usage", Spool: cfg.Spool, Table: tableSpool, ShardFor: cfg.Ledger.ShardFor,
		BatchSize: cfg.BatchSize, Workers: cfg.Workers, MaxPending: cfg.MaxPending,
		RetryInterval: cfg.RetryInterval, Now: cfg.Now, Log: cfg.Log, Obs: cfg.Obs,
		BatchMetric: "batch_size",
		ErrClosed:   ErrClosed, ErrOverloaded: ErrOverloaded,
		ErrDrainStalled: ErrDrainStalled, ErrDrainTimeout: ErrDrainTimeout,
		Settle: p.settleBatch,
		// An in-doubt transfer is durable but unfinished: it stays
		// queued and the next pass resolves it.
		Terminal: func(err error) bool {
			return !errors.Is(err, shard.ErrInDoubt) && accounts.IsRefusal(err)
		},
		Settled: p.alreadySettled,
		// Keep an allocated pin: the failed attempt never moved money,
		// and re-driving under the same ID keeps the exactly-once
		// bookkeeping intact.
		Revive: func(parked, fresh spoolRow) spoolRow {
			fresh.PinTxID = parked.PinTxID
			return fresh
		},
		Recovered: func(row spoolRow) { maxPin = max(maxPin, row.PinTxID) },
		Spooled:   func(row spoolRow) error { return p.hook(BoundarySpooled, row.ID) },
	})
	if err != nil {
		return nil, err
	}
	// Reseed above every recovered pin, so a fresh transfer can never
	// collide with a pinned-but-unfinished settlement.
	if maxPin > 0 {
		if p.cross == nil {
			return nil, fmt.Errorf("usage: spool holds pinned transaction IDs (max %d) but the ledger cannot cross shards", maxPin)
		}
		p.cross.SeedTxIDsAbove(maxPin)
	}
	p.core = core
	core.Start()
	return p, nil
}

// Close stops the workers. Pending charges stay durably spooled and
// settle when a new pipeline is constructed over the same stores.
func (p *Pipeline) Close() error { return p.core.Close() }

// Status reports the pipeline's observable state.
func (p *Pipeline) Status() *Stats {
	s := p.core.Status()
	return &Stats{
		Pending:    s.Pending,
		QueueDepth: s.QueueDepth,
		InFlight:   s.InFlight,
		Failed:     s.Failed,
		Settled:    p.settled.Load(),
		Duplicates: s.Duplicates,
		Rejected:   s.Rejected,
		Batches:    s.Batches,
		CrossShard: s.CrossShard,
		Workers:    s.Workers,
		BatchSize:  s.BatchSize,
		LastError:  s.LastError,
	}
}

// SettleOnce runs one synchronous settlement pass over every group that
// had pending work when the pass started, and reports how many charges
// reached a terminal outcome (duplicates cleaned count as settled work
// for progress accounting).
func (p *Pipeline) SettleOnce() (int, error) { return p.core.SettleOnce() }

// Drain blocks until every pending charge reaches a terminal outcome,
// or the timeout elapses. With background workers it kicks and waits;
// in synchronous mode (Workers < 0) it runs settlement passes itself
// and reports ErrDrainStalled if a full pass makes no progress.
func (p *Pipeline) Drain(timeout time.Duration) (*Stats, error) {
	err := p.core.Drain(timeout)
	return p.Status(), err
}

// Submit prices and durably spools a batch of usage records for
// asynchronous settlement. Malformed submissions come back in
// SubmitResult.Rejected (terminal — resubmitting the same bytes cannot
// succeed); duplicates of spooled or already-settled IDs are counted
// and skipped; ErrOverloaded refuses the whole batch when settlement
// lags intake past the configured bound. A nil error means every
// non-rejected submission is journaled and will settle exactly once.
// A charge parked failed resubmitted under its ID is retried.
func (p *Pipeline) Submit(batch []Submission) (*SubmitResult, error) {
	res := &SubmitResult{}
	rows := make([]spoolRow, 0, len(batch))
	for _, sub := range batch {
		row, reason := p.intakeRow(sub)
		if reason != "" {
			p.core.Rejected.Add(1)
			res.Rejected = append(res.Rejected, Rejection{ID: sub.ID, Reason: reason})
			continue
		}
		rows = append(rows, row)
	}
	in, err := p.core.Submit(rows)
	if in == nil {
		return nil, err
	}
	res.Accepted, res.Duplicates = in.Accepted, in.Duplicates
	return res, err
}

// intakeRow prices and validates one submission. A non-empty reason
// rejects it terminally.
func (p *Pipeline) intakeRow(sub Submission) (spoolRow, string) {
	switch {
	case sub.ID == "":
		return spoolRow{}, "empty submission ID"
	case sub.Drawer == "":
		return spoolRow{}, "missing drawer account"
	case sub.Recipient == "":
		return spoolRow{}, "missing recipient account"
	case sub.Drawer == sub.Recipient:
		return spoolRow{}, "drawer and recipient are the same account"
	case sub.Rates == nil:
		return spoolRow{}, "missing rate card"
	}
	rec := sub.Record
	if rec == nil {
		var err error
		if rec, err = rur.Decode(sub.RUR); err != nil {
			return spoolRow{}, fmt.Sprintf("malformed RUR: %v", err)
		}
	}
	st, err := rur.Price(rec, sub.Rates)
	if err != nil {
		return spoolRow{}, fmt.Sprintf("pricing failed: %v", err)
	}
	return spoolRow{
		ID:        sub.ID,
		Drawer:    sub.Drawer,
		Recipient: sub.Recipient,
		Amount:    st.Total,
		RUR:       sub.RUR,
		State:     spool.StatePending,
		Enqueued:  p.now(),
	}, ""
}

// alreadySettled reports whether a settled marker exists for the row.
func (p *Pipeline) alreadySettled(row spoolRow) bool {
	st := p.led.ShardStore(p.led.ShardFor(row.Drawer))
	_, err := st.Get(tableSettled, row.ID)
	return err == nil
}

// hook fires the crash hook, if any; an error abandons processing.
func (p *Pipeline) hook(b Boundary, chargeID string) error {
	if p.CrashHook == nil {
		return nil
	}
	if err := p.CrashHook(b, chargeID); err != nil {
		return fmt.Errorf("%w: %v", spool.ErrAbandoned, err)
	}
	return nil
}

// settleBatch settles one batch of charges drawn from a single account:
// the same-shard ones in one ledger transaction, then each cross-shard
// one under its pinned transaction ID.
func (p *Pipeline) settleBatch(b *spool.Batch[spoolRow]) error {
	var same, cross []spoolRow
	for _, row := range b.Rows {
		if p.led.ShardFor(row.Recipient) == b.Group.Shard {
			same = append(same, row)
		} else {
			cross = append(cross, row)
		}
	}
	if err := p.settleSameShard(b, same); err != nil {
		return err
	}
	for _, row := range cross {
		if err := p.settleCross(b, row); err != nil {
			return err
		}
	}
	return nil
}

// settleSameShard applies a batch of same-shard charges in ONE ledger
// transaction: for every charge the drawer debit, recipient credit,
// both §5.1 TRANSACTION rows, the TRANSFER record carrying the RUR, and
// the exactly-once marker — all atomic, riding one group-committed
// journal flush. This is where per-RUR fsyncs amortize away.
func (p *Pipeline) settleSameShard(b *spool.Batch[spoolRow], rows []spoolRow) error {
	if len(rows) == 0 {
		return nil
	}
	k := b.Group
	mgr := p.led.ShardManager(k.Shard)
	st := p.led.ShardStore(k.Shard)
	now := p.now()
	var settledRows, dupRows, parked []spoolRow
	err := st.Update(func(tx *db.Tx) error {
		// The closure may rerun on conflict: reset per-attempt state.
		settledRows, dupRows, parked = settledRows[:0], dupRows[:0], parked[:0]
		var drawer *accounts.Account
		var drawerErr string
		recips := make(map[accounts.ID]*accounts.Account)
		for _, row := range rows {
			ok, err := tx.Exists(tableSettled, row.ID)
			if err != nil {
				return err
			}
			if ok {
				dupRows = append(dupRows, row)
				continue
			}
			if row.Amount.IsZero() {
				// Nothing to move; the marker alone settles it.
				if err := insertMarker(tx, row.ID, 0); err != nil {
					return err
				}
				settledRows = append(settledRows, row)
				continue
			}
			if drawer == nil && drawerErr == "" {
				a, err := accounts.GetAccountTx(tx, k.Drawer)
				switch {
				case errors.Is(err, db.ErrNoRecord):
					drawerErr = fmt.Sprintf("drawer %s not found", k.Drawer)
				case err != nil:
					return err
				case a.Closed:
					drawerErr = fmt.Sprintf("drawer %s is closed", k.Drawer)
				default:
					drawer = a
				}
			}
			if drawerErr != "" {
				parked = append(parked, row.Parked(drawerErr))
				continue
			}
			rec, seen := recips[row.Recipient]
			if !seen {
				a, err := accounts.GetAccountTx(tx, row.Recipient)
				if errors.Is(err, db.ErrNoRecord) {
					parked = append(parked, row.Parked(fmt.Sprintf("recipient %s not found", row.Recipient)))
					continue
				}
				if err != nil {
					return err
				}
				rec = a
				recips[row.Recipient] = a
			}
			switch {
			case rec.Closed:
				parked = append(parked, row.Parked(fmt.Sprintf("recipient %s is closed", row.Recipient)))
				continue
			case rec.Currency != drawer.Currency:
				parked = append(parked, row.Parked(fmt.Sprintf("currency mismatch: drawer %s, recipient %s", drawer.Currency, rec.Currency)))
				continue
			case drawer.Spendable().Cmp(row.Amount) < 0:
				parked = append(parked, row.Parked(fmt.Sprintf("insufficient funds: spendable %s < %s", drawer.Spendable(), row.Amount)))
				continue
			}
			drawer.AvailableBalance = drawer.AvailableBalance.MustSub(row.Amount)
			rec.AvailableBalance = rec.AvailableBalance.MustAdd(row.Amount)
			txID, err := mgr.RecordTransferTx(tx, k.Drawer, row.Recipient, row.Amount, now, row.RUR)
			if err != nil {
				return err
			}
			if err := insertMarker(tx, row.ID, txID); err != nil {
				return err
			}
			settledRows = append(settledRows, row)
		}
		if drawer != nil {
			if err := accounts.PutAccountTx(tx, drawer); err != nil {
				return err
			}
		}
		for _, rec := range recips {
			if err := accounts.PutAccountTx(tx, rec); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("usage: settling batch on shard %d: %w", k.Shard, err)
	}
	for _, row := range settledRows {
		if !row.Amount.IsZero() {
			p.core.Batches.Add(1)
			break
		}
	}
	p.settled.Add(uint64(len(settledRows)))
	p.mSettled.Add(int64(len(settledRows)))
	p.core.Duplicates.Add(uint64(len(dupRows)))
	if err := p.hook(BoundarySettled, rows[0].ID); err != nil {
		return err
	}
	if err := b.Cleanup(append(settledRows, dupRows...), parked); err != nil {
		return err
	}
	return p.hook(BoundaryCleaned, rows[0].ID)
}

func insertMarker(tx *db.Tx, id string, txID uint64) error {
	raw, err := json.Marshal(settledMarker{ID: id, TxID: txID})
	if err != nil {
		return err
	}
	return tx.Insert(tableSettled, id, raw)
}

// settleCross settles one cross-shard charge through the 2PC ledger
// under a write-ahead pinned transaction ID. Marker and money movement
// cannot share a transaction across stores, so exactly-once comes from
// the pin: the ID is durable in the spool row before the transfer runs,
// and a retry first resolves the pinned transfer's 2PC state and checks
// whether it already landed before re-driving it. A zero-amount charge
// moves nothing and needs no pin: its marker alone settles it.
func (p *Pipeline) settleCross(b *spool.Batch[spoolRow], row spoolRow) error {
	// Already marked settled (crash between marker and cleanup)?
	if p.alreadySettled(row) {
		p.core.Duplicates.Add(1)
		return b.Cleanup([]spoolRow{row}, nil)
	}
	moves := !row.Amount.IsZero()
	if moves {
		if row.PinTxID == 0 {
			pin, err := p.pin(row.ID)
			if err != nil {
				return fmt.Errorf("usage: pinning charge %s: %w", row.ID, err)
			}
			row.PinTxID = pin
			if err := p.hook(BoundaryPinned, row.ID); err != nil {
				return err
			}
		}
		_, err := shard.DrivePinned(p.cross, b.Group.Shard, row.PinTxID, row.Drawer, row.Recipient, row.Amount,
			accounts.TransferOptions{RUR: row.RUR})
		if err != nil {
			if err := b.Fail([]spoolRow{row}, err); err != nil {
				return fmt.Errorf("usage: settling charge %s: %w", row.ID, err)
			}
			return nil // parked
		}
	}
	if err := p.hook(BoundarySettled, row.ID); err != nil {
		return err
	}

	// Marker on the drawer's shard, then cleanup. The counters move
	// with the marker insert, not the transfer: a retry after a
	// transient marker or cleanup failure must not count the same
	// charge as a second settlement.
	err := p.led.ShardStore(b.Group.Shard).Update(func(tx *db.Tx) error {
		return insertMarker(tx, row.ID, row.PinTxID)
	})
	switch {
	case errors.Is(err, db.ErrExists):
		p.core.Duplicates.Add(1)
	case err != nil:
		return fmt.Errorf("usage: marking charge %s: %w", row.ID, err)
	default:
		p.settled.Add(1)
		p.mSettled.Inc()
		if moves {
			p.core.CrossShard.Add(1)
		}
	}
	if err := p.hook(BoundaryMarked, row.ID); err != nil {
		return err
	}
	if err := b.Cleanup([]spoolRow{row}, nil); err != nil {
		return err
	}
	return p.hook(BoundaryCleaned, row.ID)
}

// pin allocates the charge's transaction ID and records it in its spool
// row write-ahead. Idempotent across retries: an ID already pinned in
// the row is adopted, never replaced.
func (p *Pipeline) pin(id string) (uint64, error) {
	pin := p.cross.AllocTxID()
	err := p.spool.Update(func(tx *db.Tx) error {
		raw, err := tx.Get(tableSpool, id)
		if err != nil {
			return err
		}
		var cur spoolRow
		if err := json.Unmarshal(raw, &cur); err != nil {
			return err
		}
		if cur.PinTxID != 0 {
			pin = cur.PinTxID
			return nil
		}
		cur.PinTxID = pin
		out, err := json.Marshal(&cur)
		if err != nil {
			return err
		}
		return tx.Put(tableSpool, id, out)
	})
	return pin, err
}
