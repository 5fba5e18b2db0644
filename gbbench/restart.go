package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"gridbank/internal/accounts"
	"gridbank/internal/core"
	"gridbank/internal/currency"
	"gridbank/internal/micropay"
	"gridbank/internal/payment"
	"gridbank/internal/usage"
)

// restartChains is how many micropay chains hold the pending claims.
const restartChains = 16

// restart measures what a restarted node costs: checkpoint decode,
// journal replay, 2PC and spool recovery, the boot checkpoint, and the
// drain of the charges and claims the spools held.
type restart struct {
	seed int64
	sz   sizes
	dir  string
	tr   *tracer
	boot bootOptions // the timed boots

	data      string // the data dir every timed boot starts from a copy of
	holders   []accounts.ID
	gsp       accounts.ID
	deposited currency.Amount
	sample    map[accounts.ID]currency.Amount
	lastTx    uint64
	gspWant   currency.Amount // GSP balance once the pending items settle
	pending   int             // spooled charges + claims awaiting settlement
	left      []int           // of them, still pending when each boot served its first call

	p   *pass
	lat *latencies
}

func newRestart(seed int64, sz sizes, dir string, tr *tracer, boot bootOptions) workload {
	return &restart{seed: seed, sz: sz, dir: dir, tr: tr, boot: boot, p: newPass(), lat: newLatencies()}
}

func holderCert(i int) string { return fmt.Sprintf("CN=holder-%06d,O=%s", i, nodeVO) }

// setup builds the data dir through the node, booted with -sync=false
// and parked pipelines (-usage-workers -1) so the load is quick and the
// spooled items stay pending: accounts created one after another and
// funded, a reboot whose checkpoint holds them, then a journal tail of
// transfers and the pending usage charges and micropay claims.
func (w *restart) setup() error {
	w.data = filepath.Join(w.dir, "data")
	if err := os.MkdirAll(w.data, 0o700); err != nil {
		return err
	}
	bulk := bootOptions{sync: false, workers: -1}
	n, err := bootNode(w.data, bulk, nil)
	if err != nil {
		return err
	}
	for i := 0; i < w.sz.restartAccounts; i++ {
		r, err := n.bank.CreateAccount(holderCert(i), &core.CreateAccountRequest{OrganizationName: nodeVO})
		if err != nil {
			n.close()
			return err
		}
		w.holders = append(w.holders, r.Account.AccountID)
	}
	r, err := n.bank.CreateAccount(n.gsp.SubjectName(), &core.CreateAccountRequest{OrganizationName: nodeVO})
	if err != nil {
		n.close()
		return err
	}
	w.gsp = r.Account.AccountID
	amount := currency.FromG(consumerDeposit)
	err = parallel(len(w.holders), 2, func(i int) error { return n.ledger.Deposit(w.holders[i], amount) })
	n.close()
	if err != nil {
		return err
	}
	w.deposited = currency.Amount(int64(amount) * int64(len(w.holders)))

	if n, err = bootNode(w.data, bulk, nil); err != nil {
		return err
	}
	defer n.close()
	return w.tail(n)
}

// tail writes what the timed boots replay: transfers among the holders,
// then charges and claims left pending in the spools. The holders
// touched by pending items are kept out of the balance sample.
func (w *restart) tail(n *node) error {
	rng := rand.New(rand.NewSource(w.seed))
	busy := w.sz.pendingCharges/64 + restartChains // holders the pending items draw on
	for i := 0; i < w.sz.restartTransfers; i++ {
		from, to := w.holders[rng.Intn(len(w.holders))], w.holders[rng.Intn(len(w.holders))]
		if from == to {
			continue
		}
		if _, err := n.ledger.Transfer(from, to, currency.FromMicro(int64(1+rng.Intn(1000))*1000), accounts.TransferOptions{}); err != nil {
			return err
		}
	}
	gsp := n.gsp.SubjectName()
	rates := benchRates(gsp)
	var charges []usage.Submission
	want := currency.Amount(0)
	for i := 0; i < w.sz.pendingCharges; i++ {
		h := i % (busy - restartChains)
		sub := usage.Submission{Drawer: w.holders[h], Recipient: w.gsp, Rates: rates}
		sub, price, err := priced(fmt.Sprintf("pending-%d-%d", w.seed, i), holderCert(h), sub, gsp, int64(36+rng.Intn(3565)))
		if err != nil {
			return err
		}
		charges = append(charges, sub)
		want = want.MustAdd(price)
	}
	for i := 0; i < len(charges); i += 64 {
		if _, err := n.bank.UsageSubmit(gsp, &core.UsageSubmitRequest{Charges: charges[i:min(i+64, len(charges))]}); err != nil {
			return err
		}
	}
	banker := n.banker.SubjectName()
	perChain := w.sz.pendingClaims / restartChains
	for c := 0; c < restartChains; c++ {
		drawer := w.holders[busy-restartChains+c]
		resp, err := n.bank.RequestChain(banker, &core.RequestChainRequest{
			AccountID: drawer, PayeeCert: gsp, Length: perChain * 8, PerWord: chainPerWord, TTL: 24 * time.Hour,
		})
		if err != nil {
			return err
		}
		chain := &payment.Chain{Commitment: resp.Chain.Commitment, Seed: resp.Seed}
		var claims []micropay.Claim
		for k := 8; k <= 8*perChain; k += 8 {
			word, err := chain.Word(k)
			if err != nil {
				return err
			}
			claims = append(claims, micropay.Claim{Serial: chain.Commitment.Serial, Index: k, Word: word})
		}
		if _, err := n.bank.MicropaySubmit(gsp, &core.MicropaySubmitRequest{Claims: claims}); err != nil {
			return err
		}
		want = want.MustAdd(currency.Amount(int64(chainPerWord) * int64(8*perChain)))
	}
	w.pending = n.usage.Status().Pending + n.micropay.Status().Pending
	if w.pending != w.sz.pendingCharges+perChain*restartChains {
		return fmt.Errorf("restart: %d items pending, want %d", w.pending, w.sz.pendingCharges+perChain*restartChains)
	}
	g, err := n.ledger.Details(w.gsp)
	if err != nil {
		return err
	}
	w.gspWant = g.AvailableBalance.MustAdd(want)
	w.sample = map[accounts.ID]currency.Amount{}
	for len(w.sample) < min(w.sz.sample, len(w.holders)-busy) {
		id := w.holders[busy+rng.Intn(len(w.holders)-busy)]
		a, err := n.ledger.Details(id)
		if err != nil {
			return err
		}
		w.sample[id] = a.AvailableBalance
	}
	// The highest ID handed out so far (allocating burns one, harmlessly).
	w.lastTx = n.ledger.AllocTxID() - 1
	return nil
}

// measure boots fresh copies of the data dir until d has passed (at
// least once). Each boot is timed from the first open call to the first
// AccountDetails it serves, then drained and checked.
func (w *restart) measure(d time.Duration) error {
	var recovers, drainRates []float64
	var boots []bootTimes
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < d; i++ {
		dir := filepath.Join(w.dir, fmt.Sprintf("boot-%d", i))
		if err := copyDir(w.data, dir); err != nil {
			return err
		}
		rec, drainRate, bt, err := w.restartOnce(dir)
		if err != nil {
			return err
		}
		recovers = append(recovers, rec.Seconds())
		drainRates = append(drainRates, drainRate)
		boots = append(boots, bt)
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	p := w.p
	p.attempted += len(recovers)
	p.e2e["op_p50_ms"] = 1000 * quantile(append([]float64(nil), recovers...), 0.5)
	p.named["details_after_boot_p50_ms"] = w.lat.q(core.OpAccountDetails, 0.5)
	p.layers["client.p99_ms."+core.OpAccountDetails] = w.lat.q(core.OpAccountDetails, 0.99)
	p.e2e["work_per_s"] = median(drainRates)
	p.named["recover_s"] = median(recovers)
	p.named["recover_s_each"] = recovers
	p.named["drain_per_s_each"] = drainRates
	p.named["pending_items"] = w.pending
	p.named["pending_at_recover_each"] = w.left
	p.named["accounts"] = len(w.holders)
	bootLayers(p, boots)
	return nil
}

// restartOnce runs one timed restart and its checks. It times recovery
// up to the first served AccountDetails, then the drain of the spool
// items still pending at that point, as items per second, and then
// checks the sampled balances, a transfer whose transaction ID must
// continue past the data dir's, the pending items settling exactly
// once, and conservation.
func (w *restart) restartOnce(dir string) (recover time.Duration, drainRate float64, bt bootTimes, err error) {
	start := time.Now()
	n, err := bootNode(dir, w.boot, w.tr)
	if err != nil {
		return 0, 0, bt, err
	}
	defer n.close()
	c, err := n.dial(n.banker)
	if err != nil {
		return 0, 0, bt, err
	}
	defer c.Close()
	var first accounts.ID
	for id := range w.sample {
		first = id
		break
	}
	if _, err := c.AccountDetails(first); err != nil {
		return 0, 0, bt, err
	}
	recover = time.Since(start)
	pending := func() int { return n.usage.Status().Pending + n.micropay.Status().Pending }
	left, drainStart := pending(), time.Now()
	settle(pending)
	drainRate = ratio(float64(left), time.Since(drainStart).Seconds())
	w.left = append(w.left, left)
	p := w.p
	for id, want := range w.sample {
		t := time.Now()
		a, err := c.AccountDetails(id)
		p.attempted++
		if err != nil {
			p.failed++
			p.failf("AccountDetails %s after restart: %v", id, err)
			continue
		}
		w.lat.add(core.OpAccountDetails, time.Since(t))
		if a.AvailableBalance != want {
			p.failf("account %s holds %s after restart, %s before", id, a.AvailableBalance, want)
		}
	}
	from, to := w.holders[len(w.holders)-1], w.holders[len(w.holders)-2]
	resp, err := c.DirectTransfer(from, to, currency.FromMicro(1000), "")
	p.attempted++
	switch {
	case err != nil:
		p.failed++
		p.failf("DirectTransfer after restart: %v", err)
	case resp.TransactionID <= w.lastTx:
		p.failf("transaction ID %d after restart does not continue past %d", resp.TransactionID, w.lastTx)
	}
	us, mp := n.usage.Status(), n.micropay.Status()
	if us.Failed+mp.Failed != 0 {
		p.failf("%d charges and %d claims parked after restart (%s%s)", us.Failed, mp.Failed, us.LastError, mp.LastError)
	}
	if g, err := n.ledger.Details(w.gsp); err != nil || g.AvailableBalance != w.gspWant {
		p.failf("GSP holds %v after the spools drained, want %s (%v)", balanceOf(g), w.gspWant, err)
	}
	checkConservation(p, n, w.deposited)
	return recover, drainRate, n.boot, nil
}

func (w *restart) check() {}

func (w *restart) result() *pass { return w.p }

func (w *restart) close() {}
