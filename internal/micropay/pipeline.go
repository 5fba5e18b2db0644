package micropay

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gridbank/internal/accounts"
	"gridbank/internal/currency"
	"gridbank/internal/db"
	"gridbank/internal/obs"
	"gridbank/internal/payment"
	"gridbank/internal/spool"
)

// tableSpool is the intake spool table (on the spool store).
const tableSpool = "micropay_spool"

// Config configures a Pipeline.
type Config struct {
	// Redeemer performs the actual chain redemptions. Required. Sharing
	// the bank's instance makes the streaming path and the synchronous
	// RedeemChain path serialize per serial.
	Redeemer *Redeemer
	// FindAccount resolves a certificate name to its account in the
	// given currency — the payee lookup at intake. Required.
	FindAccount func(cert string, cur currency.Code) (*accounts.Account, error)
	// Spool is the intake store. Required. Give it a WAL-backed journal
	// for durable intake; the pipeline recovers pending claims from it
	// at construction.
	Spool *db.Store
	// BatchSize caps how many claims one settlement batch takes off the
	// queue (default 64). All claims for one chain inside a batch
	// settle as ONE redemption transaction.
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
	Log *obs.Logger
	// Obs names the pipeline's instruments (micropay.queue_depth,
	// micropay.inflight, micropay.batch_claims, micropay.settled_ticks,
	// micropay.settled_claims, micropay.parked, micropay.overloaded,
	// micropay.settle_latency). Nil leaves telemetry off.
	Obs *obs.Registry
	// CrashHook installs fault injection before the workers start; it
	// also arms the Redeemer's hook, so the Pinned/Settled/Advanced
	// boundaries fire from inside redemption. Test instrumentation only.
	CrashHook func(b Boundary, serial string) error
}

// session is the per-chain intake state: the verified commitment, the
// resolved payee, and the highest word accepted so far — the anchor the
// next preimage verifies against in O(delta) hashes.
type session struct {
	cc       payment.ChainCommitment
	payee    accounts.ID
	head     int
	headWord []byte // empty at head 0 (anchor = root) or for legacy rows
}

// verify checks a claimed word against the session anchor. A legacy
// anchor (head advanced before words were cached) verifies the slow way
// back to the root; the first accepted claim re-anchors it.
func (s *session) verify(i int, word []byte) error {
	if s.head > 0 && len(s.headWord) == 0 {
		return payment.VerifyWord(&s.cc, i, word)
	}
	return payment.VerifyWordAfter(&s.cc, s.head, s.headWord, i, word)
}

// Pipeline is the streaming micropayment engine. Construct with New —
// which also runs crash recovery — and Close when done. Queueing,
// batching, backpressure, parking and draining are the shared spool
// core's; this type supplies claim verification against the session
// anchors at intake and the per-serial highest-claim redemption of one
// batch.
type Pipeline struct {
	core *spool.Pipeline[spoolRow]
	red  *Redeemer
	cfg  Config
	now  func() time.Time

	// intakeMu serializes claim verification so session anchors advance
	// consistently; it is never held across a settlement.
	intakeMu sync.Mutex
	sessions map[string]*session

	settledTicks  atomic.Uint64
	settledClaims atomic.Uint64
	mTicks        *obs.Counter
	mClaims       *obs.Counter
}

// New builds a pipeline over the redeemer and spool store, recovers any
// claims a crash left pending, and starts the settlement workers.
// (Pinned cross-shard redemptions live in chain rows and are recovered
// by NewRedeemer.)
func New(cfg Config) (*Pipeline, error) {
	if cfg.Redeemer == nil {
		return nil, errors.New("micropay: pipeline requires a redeemer")
	}
	if cfg.FindAccount == nil {
		return nil, errors.New("micropay: pipeline requires an account resolver")
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	p := &Pipeline{
		red:      cfg.Redeemer,
		cfg:      cfg,
		now:      cfg.Now,
		sessions: make(map[string]*session),
		mTicks:   cfg.Obs.Counter("micropay.settled_ticks"),
		mClaims:  cfg.Obs.Counter("micropay.settled_claims"),
	}
	core, err := spool.New(spool.Config[spoolRow]{
		Name: "micropay", Spool: cfg.Spool, Table: tableSpool, ShardFor: p.red.Ledger().ShardFor,
		BatchSize: cfg.BatchSize, Workers: cfg.Workers, MaxPending: cfg.MaxPending,
		RetryInterval: cfg.RetryInterval, Now: cfg.Now, Log: cfg.Log, Obs: cfg.Obs,
		BatchMetric: "batch_claims",
		ErrClosed:   ErrClosed, ErrOverloaded: ErrOverloaded,
		ErrDrainStalled: ErrDrainStalled, ErrDrainTimeout: ErrDrainTimeout,
		Settle:   p.settleBatch,
		Terminal: terminalRedeemErr,
		Spooled:  func(row spoolRow) error { return p.crashHook(BoundarySpooled, row.Serial) },
	})
	if err != nil {
		return nil, err
	}
	p.core = core
	if cfg.CrashHook != nil && p.red.Hook == nil {
		p.red.Hook = p.crashHook
	}
	core.Start()
	return p, nil
}

// Close stops the workers. Pending claims stay durably spooled and
// settle when a new pipeline is constructed over the same stores.
func (p *Pipeline) Close() error { return p.core.Close() }

// Status reports the pipeline's observable state.
func (p *Pipeline) Status() *Stats {
	s := p.core.Status()
	return &Stats{
		Pending:       s.Pending,
		QueueDepth:    s.QueueDepth,
		InFlight:      s.InFlight,
		Failed:        s.Failed,
		SettledTicks:  p.settledTicks.Load(),
		SettledClaims: p.settledClaims.Load(),
		Duplicates:    s.Duplicates,
		Rejected:      s.Rejected,
		Batches:       s.Batches,
		CrossShard:    s.CrossShard,
		Workers:       s.Workers,
		BatchSize:     s.BatchSize,
		LastError:     s.LastError,
	}
}

// SettleOnce runs one synchronous settlement pass over every group that
// had pending work when the pass started, and reports how many claims
// reached a terminal outcome.
func (p *Pipeline) SettleOnce() (int, error) { return p.core.SettleOnce() }

// Drain blocks until every pending claim reaches a terminal outcome, or
// the timeout elapses. With background workers it kicks and waits; in
// synchronous mode (Workers < 0) it runs settlement passes itself and
// reports ErrDrainStalled if a full pass makes no progress.
func (p *Pipeline) Drain(timeout time.Duration) (*Stats, error) {
	err := p.core.Drain(timeout)
	return p.Status(), err
}

// Submit verifies and durably spools a batch of chain claims for
// asynchronous redemption. payeeCert is the authenticated caller; every
// claim must belong to a chain made out to that certificate (pass "" to
// bypass the binding — admin relay). Claims with bad preimages, unknown
// serials or expired chains come back in SubmitResult.Rejected
// (terminal); claims at or below the accepted head are duplicates under
// the delta rule. A nil error means every accepted claim is journaled
// and its ticks will be paid exactly once.
func (p *Pipeline) Submit(payeeCert string, batch []Claim) (*SubmitResult, error) {
	res := &SubmitResult{}
	// Verify under the intake lock: each claim extends a per-chain
	// anchor, so a burst of N claims on one chain costs O(maxIndex)
	// hashes total, not O(N·maxIndex). Anchor advances are buffered and
	// applied only after the spool transaction commits.
	type advance struct {
		idx  int
		word []byte
	}
	adv := make(map[string]advance)
	var rows []spoolRow
	var ticks int
	reject := func(cl *Claim, reason string) {
		p.core.Rejected.Add(1)
		res.Rejected = append(res.Rejected, Rejection{Serial: cl.Serial, Index: cl.Index, Reason: reason})
	}
	p.intakeMu.Lock()
	defer p.intakeMu.Unlock()
	for i := range batch {
		cl := &batch[i]
		if reason := ValidClaimShape(cl); reason != "" {
			reject(cl, reason)
			continue
		}
		sess, reason := p.sessionFor(cl.Serial, payeeCert)
		if reason != "" {
			reject(cl, reason)
			continue
		}
		head, headWord := sess.head, sess.headWord
		if a, ok := adv[cl.Serial]; ok {
			head, headWord = a.idx, a.word
		}
		if cl.Index <= head {
			// The delta rule makes a lower claim redundant: the accepted
			// higher word already pays for it.
			res.Duplicates++
			continue
		}
		eff := session{cc: sess.cc, payee: sess.payee, head: head, headWord: headWord}
		if err := eff.verify(cl.Index, cl.Word); err != nil {
			reject(cl, err.Error())
			continue
		}
		ticks += cl.Index - head
		adv[cl.Serial] = advance{idx: cl.Index, word: cl.Word}
		rows = append(rows, spoolRow{
			Key:      spoolKey(cl.Serial, cl.Index),
			Serial:   cl.Serial,
			Index:    cl.Index,
			Word:     cl.Word,
			RUR:      cl.RUR,
			Drawer:   sess.cc.DrawerAccountID,
			Payee:    sess.payee,
			State:    spool.StatePending,
			Enqueued: p.now(),
		})
	}
	in, err := p.core.Submit(rows)
	if in == nil {
		return nil, err
	}
	// The claims are durable: commit the anchor advances.
	for serial, a := range adv {
		if sess := p.sessions[serial]; sess != nil && a.idx > sess.head {
			sess.head = a.idx
			sess.headWord = a.word
		}
	}
	res.Accepted = in.Accepted
	res.AcceptedTicks = ticks
	res.Duplicates += in.Duplicates
	return res, err
}

// sessionFor loads (or returns) the intake session for a chain,
// checking everything that makes a claim terminally unacceptable. A
// non-empty reason rejects the claim. Caller holds intakeMu.
func (p *Pipeline) sessionFor(serial, payeeCert string) (*session, string) {
	if serial == "" {
		return nil, "empty chain serial"
	}
	sess := p.sessions[serial]
	if sess == nil {
		row, err := p.red.Get(serial)
		if errors.Is(err, ErrUnknownChain) {
			return nil, "unknown chain serial"
		}
		if err != nil {
			return nil, err.Error()
		}
		if row.State != StateOutstanding {
			return nil, fmt.Sprintf("chain is %s", row.State)
		}
		acct, err := p.cfg.FindAccount(row.Commitment.PayeeCert, row.Commitment.Currency)
		if err != nil {
			return nil, fmt.Sprintf("payee has no %s account: %v", row.Commitment.Currency, err)
		}
		head := row.RedeemedIndex
		if row.PinTxID != 0 && row.PinIndex > head {
			head = row.PinIndex
		}
		headWord := row.RedeemedWord
		if row.PinTxID != 0 && row.PinIndex > row.RedeemedIndex {
			headWord = row.PinWord
		}
		sess = &session{cc: row.Commitment, payee: acct.AccountID, head: head, headWord: headWord}
		p.sessions[serial] = sess
	}
	if payeeCert != "" && payeeCert != sess.cc.PayeeCert {
		return nil, fmt.Sprintf("chain is payable to %s, not %s", sess.cc.PayeeCert, payeeCert)
	}
	if !p.now().Before(sess.cc.Expires) {
		return nil, "chain expired"
	}
	return sess, ""
}

// crashHook fires the pipeline-level crash hook, if any.
func (p *Pipeline) crashHook(b Boundary, serial string) error {
	if p.cfg.CrashHook == nil {
		return nil
	}
	if err := p.cfg.CrashHook(b, serial); err != nil {
		return fmt.Errorf("%w: %v", spool.ErrAbandoned, err)
	}
	return nil
}

// terminalRedeemErr classifies redemption errors retrying cannot fix.
func terminalRedeemErr(err error) bool {
	return errors.Is(err, ErrUnknownChain) ||
		errors.Is(err, ErrChainState) ||
		errors.Is(err, payment.ErrBadWord) ||
		errors.Is(err, payment.ErrBadIndex) ||
		accounts.IsRefusal(err)
}

// settleBatch settles one batch of claims drawn from a single account.
// Claims collapse per chain: only the highest index redeems (one
// transaction per chain), and the lower claims it subsumes finish as
// part of the same advance.
func (p *Pipeline) settleBatch(b *spool.Batch[spoolRow]) error {
	bySerial := make(map[string][]spoolRow)
	serials := make([]string, 0, 4)
	for _, row := range b.Rows {
		if _, seen := bySerial[row.Serial]; !seen {
			serials = append(serials, row.Serial)
		}
		bySerial[row.Serial] = append(bySerial[row.Serial], row)
	}
	sort.Strings(serials)

	for _, serial := range serials {
		rows := bySerial[serial]
		// The delta rule: the highest claim pays for everything below it.
		best := 0
		for i := range rows {
			if rows[i].Index > rows[best].Index {
				best = i
			}
		}
		top := rows[best]
		out, err := p.red.Redeem(serial, top.Payee, top.Index, top.Word, top.RUR)
		switch {
		case err == nil:
			if out.Ticks > 0 {
				p.core.Batches.Add(1)
			}
			if out.CrossShard {
				p.core.CrossShard.Add(1)
			}
			p.settledTicks.Add(uint64(out.Ticks))
			p.settledClaims.Add(uint64(len(rows)))
			p.mTicks.Add(int64(out.Ticks))
			p.mClaims.Add(int64(len(rows)))
		case errors.Is(err, ErrStaleIndex):
			// Already paid (replay, or subsumed by an earlier advance).
			p.core.Duplicates.Add(uint64(len(rows)))
		default:
			if err := b.Fail(rows, err); err != nil {
				return fmt.Errorf("micropay: redeeming chain %s: %w", serial, err)
			}
			continue // parked
		}
		if err := b.Cleanup(rows, nil); err != nil {
			return err
		}
		if err := p.crashHook(BoundaryCleaned, serial); err != nil {
			return err
		}
	}
	return nil
}

// wordSize guards claim shape at the wire layer.
const wordSize = sha256.Size

// ValidClaimShape cheaply screens a claim before any chain lookup.
func ValidClaimShape(cl *Claim) string {
	switch {
	case cl.Serial == "":
		return "empty chain serial"
	case cl.Index <= 0 || cl.Index > payment.MaxChainLength:
		return fmt.Sprintf("claim index %d out of range", cl.Index)
	case len(cl.Word) != wordSize:
		return "claim word is not a SHA-256 digest"
	}
	return ""
}
