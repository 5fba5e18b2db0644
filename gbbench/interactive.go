package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"gridbank/internal/accounts"
	"gridbank/internal/core"
	"gridbank/internal/currency"
	"gridbank/internal/payment"
	"gridbank/internal/rur"
)

// Interactive mix kinds, with their phase-1 shares.
const (
	opTransfer = iota // 45%: keyed DirectTransfer, consumer -> provider
	opCheck           // 15%: CheckFunds
	opDetails         // 30%: AccountDetails
	opCheque          // 10%: RequestCheque on A, RedeemCheque with a RUR on B
)

const consumerDeposit = 100000 // G$ per consumer account

// population is the account set interactive and settlement share:
// consumers and providers each owned by their own subject, and the GSP
// identity's own account.
type population struct {
	consumers, providers []accounts.ID
	consumerCert         []string
	gsp                  accounts.ID
	deposited            currency.Amount
}

func consumerCert(i int) string { return fmt.Sprintf("CN=consumer-%04d,O=%s", i, nodeVO) }
func providerCert(i int) string { return fmt.Sprintf("CN=provider-%04d,O=%s", i, nodeVO) }

// populate creates the accounts one after another through the bank, so
// account numbers, and with them shard placement, repeat for a seed,
// then funds every consumer through the banker's connection.
func populate(n *node, banker *core.Client, sz sizes) (*population, error) {
	pop := &population{}
	create := func(cert string) (accounts.ID, error) {
		r, err := n.bank.CreateAccount(cert, &core.CreateAccountRequest{OrganizationName: nodeVO})
		if err != nil {
			return "", err
		}
		return r.Account.AccountID, nil
	}
	for i := 0; i < sz.consumers; i++ {
		id, err := create(consumerCert(i))
		if err != nil {
			return nil, err
		}
		pop.consumers = append(pop.consumers, id)
		pop.consumerCert = append(pop.consumerCert, consumerCert(i))
	}
	for i := 0; i < sz.providers; i++ {
		id, err := create(providerCert(i))
		if err != nil {
			return nil, err
		}
		pop.providers = append(pop.providers, id)
	}
	gsp, err := create(n.gsp.SubjectName())
	if err != nil {
		return nil, err
	}
	pop.gsp = gsp
	amount := currency.FromG(consumerDeposit)
	err = parallel(len(pop.consumers), core.DefaultMaxInFlight, func(i int) error {
		return banker.AdminDeposit(pop.consumers[i], amount)
	})
	if err != nil {
		return nil, err
	}
	pop.deposited = currency.Amount(int64(amount) * int64(len(pop.consumers)))
	return pop, nil
}

// bootPopulated bulk-loads the accounts into dir on a node booted with
// -sync=false, then boots the node under test over the same dir with
// opt: a boot that replays the load and checkpoints it.
func bootPopulated(dir string, sz sizes, tr *tracer, opt bootOptions) (*node, *population, error) {
	load, err := bootNode(dir, bootOptions{sync: false, workers: pipeWorkers}, nil)
	if err != nil {
		return nil, nil, err
	}
	banker, err := load.dial(load.banker)
	if err != nil {
		load.close()
		return nil, nil, err
	}
	pop, err := populate(load, banker, sz)
	banker.Close()
	load.close()
	if err != nil {
		return nil, nil, err
	}
	n, err := bootNode(dir, opt, tr)
	return n, pop, err
}

// parallel runs f(0..n-1) on at most width goroutines and returns the
// first error.
func parallel(n, width int, f func(i int) error) error {
	var next atomic.Int64
	var first atomic.Pointer[error]
	var wg sync.WaitGroup
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || first.Load() != nil {
					return
				}
				if err := f(i); err != nil {
					first.CompareAndSwap(nil, &err)
				}
			}
		}()
	}
	wg.Wait()
	if p := first.Load(); p != nil {
		return *p
	}
	return nil
}

// checkConservation compares Σ balances + 2PC escrow with the deposits.
func checkConservation(p *pass, n *node, deposited currency.Amount) {
	total, err := n.ledger.TotalBalance()
	switch {
	case err != nil:
		p.failf("conservation: %v", err)
	case total != deposited:
		p.failf("conservation: balances + escrow %s, deposits %s", total, deposited)
	}
}

// encodeRUR builds the usage record a GSP presents as evidence.
func encodeRUR(consumer, provider, job string, cpuSeconds int64) ([]byte, error) {
	end := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	rec := &rur.Record{
		User:     rur.UserDetails{CertificateName: consumer},
		Job:      rur.JobDetails{JobID: job, Application: "gbbench", Start: end.Add(-time.Duration(cpuSeconds) * time.Second), End: end},
		Resource: rur.ResourceDetails{Host: "bench", CertificateName: provider, LocalJobID: job},
	}
	rec.SetQuantity(rur.ItemCPU, cpuSeconds)
	return rur.Encode(rec, rur.FormatJSON)
}

// iop is one generated interactive operation.
type iop struct {
	kind     int
	due      time.Duration // phase 1: offset from the phase start
	consumer int
	provider int
	amount   currency.Amount
	key      string
	rur      []byte // opCheque: the claim's evidence
}

type interactive struct {
	seed int64
	sz   sizes
	dir  string
	tr   *tracer
	boot bootOptions

	n       *node
	a, b    *core.Client
	pop     *population
	phase1  []iop
	phase2  []iop
	phase1D time.Duration
	phase2D time.Duration

	p                *pass
	mu               sync.Mutex
	rtt, due, closed *latencies
	late             []float64
	receipts         []receiptCheck
	cheques          []*payment.SignedCheque
	claimed          currency.Amount
	errs             atomic.Int64
}

type receiptCheck struct {
	op   iop
	resp *core.DirectTransferResponse
}

func newInteractive(seed int64, sz sizes, dir string, tr *tracer, boot bootOptions) workload {
	return &interactive{seed: seed, sz: sz, dir: dir, tr: tr, boot: boot, p: newPass(), rtt: newLatencies(), due: newLatencies(), closed: newLatencies()}
}

// phases splits the measured time: 40% open loop, 60% closed loop. The
// open loop's p50 settles within a few thousand operations; peak_ops_s
// drifts within a run, so the closed loop gets the longer share.
func phases(d time.Duration) (time.Duration, time.Duration) {
	return d * 4 / 10, d - d*4/10
}

func (w *interactive) setup() error {
	n, pop, err := bootPopulated(w.dir, w.sz, w.tr, w.boot)
	if err != nil {
		return err
	}
	w.n, w.pop = n, pop
	if w.a, err = n.dial(n.banker); err != nil {
		return err
	}
	if w.b, err = n.dial(n.gsp); err != nil {
		return err
	}
	for _, c := range []*core.Client{w.a, w.b} {
		if _, err := c.Ping(); err != nil {
			return err
		}
	}
	return nil
}

// generate draws both phases' operations from the seed. Phase 1 is a
// Poisson process at sz.rate; phase 2 is a list the closed loop drains.
func (w *interactive) generate(d time.Duration) error {
	w.phase1D, w.phase2D = phases(d)
	rng := rand.New(rand.NewSource(w.seed))
	gsp := w.n.gsp.SubjectName()
	draw := func(phase, i int) (iop, error) {
		op := iop{consumer: rng.Intn(len(w.pop.consumers)), provider: rng.Intn(len(w.pop.providers))}
		switch r := rng.Intn(100); {
		case r < 45:
			op.kind = opTransfer
			op.amount = currency.FromMicro(int64(1+rng.Intn(1000)) * 1000)
			op.key = fmt.Sprintf("bench-%d-%d-%d", w.seed, phase, i)
		case r < 60:
			op.kind = opCheck
			op.amount = currency.FromMicro(1000)
		case r < 90:
			op.kind = opDetails
		default:
			op.kind = opCheque
			op.amount = currency.FromMicro(int64(500+rng.Intn(500)) * 1000)
			raw, err := encodeRUR(w.pop.consumerCert[op.consumer], gsp, fmt.Sprintf("cheque-%d-%d", phase, i), 60)
			if err != nil {
				return op, err
			}
			op.rur = raw
		}
		return op, nil
	}
	var at float64
	for i := 0; ; i++ {
		at += rng.ExpFloat64() / w.sz.rate
		due := time.Duration(at * float64(time.Second))
		if due >= w.phase1D {
			break
		}
		op, err := draw(1, i)
		if err != nil {
			return err
		}
		op.due = due
		w.phase1 = append(w.phase1, op)
	}
	// Enough for the closed loop at well above the host's peak.
	for i := 0; i < int(20000*w.phase2D.Seconds())+1; i++ {
		op, err := draw(2, i)
		if err != nil {
			return err
		}
		w.phase2 = append(w.phase2, op)
	}
	return nil
}

// exec runs one operation and files its latency from due, when it
// should have been sent, under lat. Phase-1 operations (open) also
// record each call's round trip and keep their receipts for check.
func (w *interactive) exec(op iop, due time.Time, lat *latencies, open bool) {
	a, pop := w.a, w.pop
	from, to := pop.consumers[op.consumer], pop.providers[op.provider]
	timed := func(name string, f func() error) error {
		start := time.Now()
		err := f()
		if open && err == nil {
			w.rtt.add(name, time.Since(start))
		}
		return err
	}
	var err error
	var name string
	switch op.kind {
	case opTransfer:
		name = core.OpDirectTransfer
		var resp *core.DirectTransferResponse
		err = timed(name, func() (e error) {
			resp, e = a.DirectTransferKeyed(op.key, from, to, op.amount, "")
			return e
		})
		if err == nil && open {
			w.mu.Lock()
			w.receipts = append(w.receipts, receiptCheck{op: op, resp: resp})
			w.mu.Unlock()
		}
	case opCheck:
		name = core.OpCheckFunds
		err = timed(name, func() error { return a.CheckFunds(from, op.amount) })
	case opDetails:
		name = core.OpAccountDetails
		err = timed(name, func() error { _, e := a.AccountDetails(from); return e })
	case opCheque:
		name = "Cheque"
		var sc *payment.SignedCheque
		err = timed(core.OpRequestCheque, func() (e error) {
			sc, e = a.RequestCheque(from, currency.FromG(1), w.n.gsp.SubjectName(), time.Hour)
			return e
		})
		if err == nil {
			claim := &payment.ChequeClaim{Serial: sc.Cheque.Serial, Amount: op.amount, RUR: op.rur}
			err = timed(core.OpRedeemCheque, func() error { _, e := w.b.RedeemCheque(sc, claim); return e })
		}
		if err == nil {
			w.mu.Lock()
			w.cheques = append(w.cheques, sc)
			w.claimed = w.claimed.MustAdd(op.amount)
			w.mu.Unlock()
		}
	}
	if err != nil {
		if w.errs.Add(1) <= 5 {
			w.mu.Lock()
			w.p.failf("%s: %v", name, err)
			w.mu.Unlock()
		}
		return
	}
	lat.add(name, time.Since(due))
}

func (w *interactive) measure(d time.Duration) error {
	if err := w.generate(d); err != nil {
		return err
	}
	// Phase 1: open loop at a fixed rate, each op timed from its due time.
	win := openWindow(w.n)
	var wg sync.WaitGroup
	start := time.Now()
	for _, op := range w.phase1 {
		due := start.Add(op.due)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		w.late = append(w.late, float64(time.Since(due).Microseconds()))
		wg.Add(1)
		go func(op iop) {
			defer wg.Done()
			w.exec(op, due, w.due, true)
		}(op)
	}
	wg.Wait()
	// Phase 1 runs a fixed set of operations, so its counts repeat
	// exactly for a seed.
	for k, v := range win.close(w.p, len(w.phase1), w.rtt) {
		w.p.exact[k] = v
	}
	w.p.layers["gen.late_us_p99"] = quantile(w.late, 0.99)
	bootLayers(w.p, []bootTimes{w.n.boot})

	// Phase 2: closed loop holding sz.outstanding ops in flight.
	var next, done atomic.Int64
	deadline := time.Now().Add(w.phase2D)
	start = time.Now()
	var end atomic.Int64
	for i := 0; i < w.sz.outstanding; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				k := int(next.Add(1)) - 1
				if k >= len(w.phase2) {
					return
				}
				w.exec(w.phase2[k], time.Now(), w.closed, false)
				done.Add(1)
				end.Store(int64(time.Since(start)))
			}
		}()
	}
	wg.Wait()
	elapsed := time.Duration(end.Load()).Seconds()
	peak := ratio(float64(done.Load()), elapsed)

	p := w.p
	p.attempted = len(w.phase1) + int(done.Load())
	p.failed = int(w.errs.Load())
	p.e2e["op_p50_ms"] = w.due.q(core.OpDirectTransfer, 0.5)
	p.e2e["work_per_s"] = peak
	p.named["transfer_p50_ms"] = p.e2e["op_p50_ms"]
	p.named["transfer_p90_ms"] = w.due.q(core.OpDirectTransfer, 0.9)
	p.named["checkfunds_p50_ms"] = w.due.q(core.OpCheckFunds, 0.5)
	p.named["query_p50_ms"] = w.due.q(core.OpAccountDetails, 0.5)
	p.named["closed_transfer_p50_ms"] = w.closed.q(core.OpDirectTransfer, 0.5)
	p.named["closed_query_p50_ms"] = w.closed.q(core.OpAccountDetails, 0.5)
	p.named["cheque_p50_ms"] = w.due.q("Cheque", 0.5)
	p.named["peak_ops_s"] = peak
	p.named["phase1_ops"] = len(w.phase1)
	p.named["phase1_rate_ops_s"] = w.sz.rate
	p.named["transfer_p99_ms"] = w.due.q(core.OpDirectTransfer, 0.99)
	p.named["transfer_samples"] = len(w.due.ms[core.OpDirectTransfer])
	return nil
}

func (w *interactive) check() {
	p := w.p
	bankSubject := w.n.bankID.SubjectName()
	now := time.Now()
	for _, rc := range w.receipts {
		var rcpt core.TransferReceipt
		if rc.resp.Receipt == nil {
			p.failf("transfer %s: no receipt", rc.op.key)
			continue
		}
		subj, err := rc.resp.Receipt.Verify(w.n.trust, core.ReceiptContext, now, &rcpt)
		want := core.TransferReceipt{
			TransactionID: rc.resp.TransactionID, Drawer: w.pop.consumers[rc.op.consumer],
			Recipient: w.pop.providers[rc.op.provider], Amount: rc.op.amount,
		}
		if err != nil || subj != bankSubject || rcpt.TransactionID != want.TransactionID ||
			rcpt.Drawer != want.Drawer || rcpt.Recipient != want.Recipient || rcpt.Amount != want.Amount {
			p.failf("transfer %s: receipt does not verify (%v, signer %q)", rc.op.key, err, subj)
		}
	}
	if len(w.cheques) > 0 {
		sc := w.cheques[0]
		_, err := w.b.RedeemCheque(sc, &payment.ChequeClaim{Serial: sc.Cheque.Serial, Amount: currency.FromMicro(1000)})
		if err == nil {
			p.failf("cheque %s redeemed twice", sc.Cheque.Serial)
		}
	}
	checkConservation(p, w.n, w.pop.deposited)
	if acct, err := w.n.ledger.Details(w.pop.gsp); err != nil || acct.AvailableBalance != w.claimed {
		p.failf("GSP credited %v for cheques worth %s (%v)", balanceOf(acct), w.claimed, err)
	}
}

func balanceOf(a *accounts.Account) any {
	if a == nil {
		return nil
	}
	return a.AvailableBalance
}

func (w *interactive) result() *pass { return w.p }

func (w *interactive) close() {
	for _, c := range []*core.Client{w.a, w.b} {
		if c != nil {
			c.Close()
		}
	}
	if w.n != nil {
		w.n.close()
	}
}
