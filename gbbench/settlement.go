package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"gridbank/internal/core"
	"gridbank/internal/currency"
	"gridbank/internal/micropay"
	"gridbank/internal/rur"
	"gridbank/internal/usage"
)

// chainPerWord is the micropay chains' price per tick.
var chainPerWord = currency.FromMicro(100)

// benchRates prices CPU time at 1 G$ per hour and nothing else.
func benchRates(provider string) *rur.RateCard {
	rates := map[rur.Item]currency.Rate{}
	for _, item := range rur.AllItems {
		rates[item] = currency.ZeroRate
	}
	rates[rur.ItemCPU] = currency.PerHour(currency.Scale)
	return &rur.RateCard{Provider: provider, Currency: currency.GridDollar, Rates: rates}
}

// priced builds one usage submission and returns it with its price.
func priced(id string, drawerCert string, sub usage.Submission, gsp string, cpu int64) (usage.Submission, currency.Amount, error) {
	raw, err := encodeRUR(drawerCert, gsp, id, cpu)
	if err != nil {
		return sub, 0, err
	}
	rec, err := rur.Decode(raw)
	if err != nil {
		return sub, 0, err
	}
	st, err := rur.Price(rec, sub.Rates)
	if err != nil {
		return sub, 0, err
	}
	sub.ID, sub.RUR = id, raw
	return sub, st.Total, nil
}

// streamChain is one micropay chain's words at every claim index,
// packed: the word for index k sits at words[(k/every-1)*32:].
type streamChain struct {
	serial string
	every  int
	words  []byte
}

func (c *streamChain) claim(k int) micropay.Claim {
	off := (k/c.every - 1) * sha256.Size
	return micropay.Claim{Serial: c.serial, Index: k, Word: c.words[off : off+sha256.Size]}
}

// openChains requests count chains from the first consumers to the GSP,
// two at a time, and keeps the words the claims will present.
func openChains(c *core.Client, pop *population, gsp string, count, length, every int) ([]streamChain, error) {
	out := make([]streamChain, count)
	err := parallel(count, 2, func(i int) error {
		ch, _, err := c.RequestChain(pop.consumers[i%len(pop.consumers)], gsp, length, chainPerWord, 24*time.Hour)
		if err != nil {
			return err
		}
		sc := streamChain{serial: ch.Commitment.Serial, every: every}
		for k := every; k <= length; k += every {
			w, err := ch.Word(k)
			if err != nil {
				return err
			}
			sc.words = append(sc.words, w...)
		}
		out[i] = sc
		return nil
	})
	return out, err
}

type bgOp struct {
	due      time.Duration
	from, to int
	amount   currency.Amount
}

type settlement struct {
	seed int64
	sz   sizes
	dir  string
	tr   *tracer
	boot bootOptions

	n      *node
	a, b   *core.Client // A: the GSP; B: the banker
	pop    *population
	chains []streamChain
	rounds [][]usage.Submission
	prices [][]currency.Amount
	bg     []bgOp

	p        *pass
	lat      *latencies // round trips, per op
	due      *latencies // background transfers from their due time
	errs     atomic.Int64
	mu       sync.Mutex
	expected currency.Amount // what the GSP should have been credited
	charges  int
	ticks    int

	// over is set when either closed loop stops: the other then starts
	// no new round, so the two always run side by side.
	over atomic.Bool
}

func newSettlement(seed int64, sz sizes, dir string, tr *tracer, boot bootOptions) workload {
	return &settlement{seed: seed, sz: sz, dir: dir, tr: tr, boot: boot, p: newPass(), lat: newLatencies(), due: newLatencies()}
}

// roundStat is one closed round of a settlement loop.
type roundStat struct {
	end       time.Duration // when it settled, from the run's start
	rate      float64       // what it settled per second, from its first submit
	submitP50 float64       // its submits' acknowledgement p50, ms
}

// roundRates lists each round's rate, for the report line.
func roundRates(rounds []roundStat) []float64 {
	out := make([]float64, len(rounds))
	for i, r := range rounds {
		out[i] = r.rate
	}
	return out
}

// sideBySide is the median rate and submit p50 over the rounds that
// settled before otherEnd, when the other loop stopped (over every round
// if none did). Medians over rounds of fixed work keep a short stall from
// moving the result.
func sideBySide(rounds []roundStat, otherEnd time.Duration) (rate, submitP50 float64) {
	var rates, p50s []float64
	for _, r := range rounds {
		if r.end <= otherEnd {
			rates, p50s = append(rates, r.rate), append(p50s, r.submitP50)
		}
	}
	if len(rates) == 0 {
		for _, r := range rounds {
			rates, p50s = append(rates, r.rate), append(p50s, r.submitP50)
		}
	}
	return median(rates), median(p50s)
}

func (w *settlement) setup() error {
	n, pop, err := bootPopulated(w.dir, w.sz, w.tr, w.boot)
	if err != nil {
		return err
	}
	w.n, w.pop = n, pop
	if w.a, err = n.dial(n.gsp); err != nil {
		return err
	}
	if w.b, err = n.dial(n.banker); err != nil {
		return err
	}
	w.chains, err = openChains(w.b, pop, n.gsp.SubjectName(), w.sz.chains, w.sz.chainLen, w.sz.claimTicks)
	if err != nil {
		return err
	}
	_, err = w.a.Ping()
	return err
}

// generate draws the usage rounds (Zipf-skewed drawers: a few
// bag-of-tasks users run most jobs) and the background transfers.
func (w *settlement) generate(d time.Duration) error {
	rng := rand.New(rand.NewSource(w.seed))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(w.pop.consumers)-1))
	gsp := w.n.gsp.SubjectName()
	rates := benchRates(gsp)
	// Rounds enough for the usage loop at 1.5x the fastest rate seen on
	// a 2-CPU host.
	maxRounds := int(6000*d.Seconds())/w.sz.round + 2
	for r := 0; r < maxRounds; r++ {
		var round []usage.Submission
		var prices []currency.Amount
		for i := 0; i < w.sz.round; i++ {
			c := int(zipf.Uint64())
			sub := usage.Submission{Drawer: w.pop.consumers[c], Recipient: w.pop.gsp, Rates: rates}
			sub, price, err := priced(fmt.Sprintf("job-%d-%d-%d", w.seed, r, i), w.pop.consumerCert[c], sub, gsp, int64(36+rng.Intn(3565)))
			if err != nil {
				return err
			}
			round = append(round, sub)
			prices = append(prices, price)
		}
		w.rounds = append(w.rounds, round)
		w.prices = append(w.prices, prices)
	}
	var at float64
	for {
		at += rng.ExpFloat64() / w.sz.bgRate
		due := time.Duration(at * float64(time.Second))
		if due >= 4*d {
			break
		}
		w.bg = append(w.bg, bgOp{
			due: due, from: rng.Intn(len(w.pop.consumers)), to: rng.Intn(len(w.pop.providers)),
			amount: currency.FromMicro(int64(1+rng.Intn(1000)) * 1000),
		})
	}
	return nil
}

func (w *settlement) fail(what string, err error) {
	if w.errs.Add(1) <= 5 {
		w.mu.Lock()
		w.p.failf("%s: %v", what, err)
		w.mu.Unlock()
	}
}

// settle polls the pipeline status until nothing is pending.
func settle(pending func() int) {
	for pending() > 0 {
		time.Sleep(time.Millisecond)
	}
}

// lagPoint pairs a count of accepted (or settled) charges with when it
// was reached.
type lagPoint struct {
	at    time.Duration
	count uint64
}

// usageLoop runs closed usage rounds until d has passed or the micropay
// loop has stopped: submit a whole round in batches, then wait until it
// has settled.
func (w *settlement) usageLoop(start time.Time, d time.Duration, roundOne func()) (rounds []roundStat) {
	var acks, settled []lagPoint
	base := w.n.usage.Status().Settled
	var accepted uint64
	for r := 0; r < len(w.rounds) && time.Since(start) < d && !w.over.Load(); r++ {
		round := w.rounds[r]
		began := time.Now()
		var submits []float64
		for i := 0; i < len(round); i += w.sz.usageBatch {
			batch := round[i:min(i+w.sz.usageBatch, len(round))]
			t := time.Now()
			res, err := w.a.UsageSubmit(batch)
			if err != nil {
				w.fail("Usage.Submit", err)
				continue
			}
			w.lat.add(core.OpUsageSubmit, time.Since(t))
			submits = append(submits, float64(time.Since(t))/float64(time.Millisecond))
			if res.Accepted != len(batch) {
				w.fail("Usage.Submit", fmt.Errorf("accepted %d of %d (%d duplicates, %v)", res.Accepted, len(batch), res.Duplicates, res.Rejected))
			}
			accepted += uint64(res.Accepted)
			acks = append(acks, lagPoint{time.Since(start), accepted})
			settled = append(settled, lagPoint{time.Since(start), w.n.usage.Status().Settled - base})
		}
		settle(func() int {
			st := w.n.usage.Status()
			settled = append(settled, lagPoint{time.Since(start), st.Settled - base})
			return st.Pending
		})
		rounds = append(rounds, roundStat{
			end:       time.Since(start),
			rate:      ratio(float64(len(round)), time.Since(began).Seconds()),
			submitP50: quantile(submits, 0.5),
		})
		w.mu.Lock()
		w.charges += len(round)
		for _, p := range w.prices[r] {
			w.expected = w.expected.MustAdd(p)
		}
		w.mu.Unlock()
		if r == 0 {
			roundOne()
		}
	}
	// Count-crossing lag: the k-th accepted charge is taken as settled
	// when the settled count first reaches k.
	var lags []float64
	j := 0
	for _, a := range acks {
		for j < len(settled) && settled[j].count < a.count {
			j++
		}
		if j < len(settled) {
			lags = append(lags, float64(settled[j].at-a.at)/float64(time.Millisecond))
		}
	}
	w.p.layers["usage.lag_ms_p50"] = quantile(lags, 0.5)
	return rounds
}

// micropayLoop runs closed micropay rounds until d has passed, the usage
// loop has stopped or the chains are used up: each round advances every
// chain by round/chains claims of claimTicks ticks, in batches of one
// claim per chain, then waits until they settle.
func (w *settlement) micropayLoop(start time.Time, d time.Duration) (rounds []roundStat, exhausted bool) {
	perRound := w.sz.round / len(w.chains)
	next := w.sz.claimTicks
	for time.Since(start) < d && !w.over.Load() {
		if next+(perRound-1)*w.sz.claimTicks > w.sz.chainLen {
			return rounds, true
		}
		began := time.Now()
		var submits []float64
		for k := 0; k < perRound; k++ {
			batch := make([]micropay.Claim, len(w.chains))
			for c, ch := range w.chains {
				batch[c] = ch.claim(next)
			}
			t := time.Now()
			res, err := w.a.MicropaySubmit(batch)
			if err != nil {
				w.fail("Micropay.Submit", err)
				continue
			}
			w.lat.add(core.OpMicropaySubmit, time.Since(t))
			submits = append(submits, float64(time.Since(t))/float64(time.Millisecond))
			if res.Accepted != len(batch) {
				w.fail("Micropay.Submit", fmt.Errorf("accepted %d of %d (%v)", res.Accepted, len(batch), res.Rejected))
			}
			next += w.sz.claimTicks
		}
		settle(func() int { return w.n.micropay.Status().Pending })
		ticks := perRound * len(w.chains) * w.sz.claimTicks
		rounds = append(rounds, roundStat{
			end:       time.Since(start),
			rate:      ratio(float64(ticks), time.Since(began).Seconds()),
			submitP50: quantile(submits, 0.5),
		})
		w.mu.Lock()
		w.ticks += ticks
		w.mu.Unlock()
	}
	return rounds, false
}

func (w *settlement) measure(d time.Duration) error {
	if err := w.generate(d); err != nil {
		return err
	}
	win := openWindow(w.n)
	us0 := w.n.usage.Status()
	start := time.Now()
	stop := make(chan struct{})
	var bg, loops sync.WaitGroup
	var bgDone atomic.Int64
	var late []float64
	bg.Add(1)
	go func() {
		defer bg.Done()
		late = w.background(start, stop, &bgDone)
	}()
	var usageR, microR []roundStat
	var usageEnd, microEnd time.Duration
	var exhausted bool
	loops.Add(2)
	go func() {
		defer loops.Done()
		usageR = w.usageLoop(start, d, func() {
			st := w.n.usage.Status()
			share := ratio(float64(st.CrossShard-us0.CrossShard), float64(st.Settled-us0.Settled))
			w.p.exact["usage.cross_share"] = share
			w.p.layers["usage.cross_share"] = share
		})
		usageEnd = time.Since(start)
		w.over.Store(true)
	}()
	go func() {
		defer loops.Done()
		microR, exhausted = w.micropayLoop(start, d)
		microEnd = time.Since(start)
		w.over.Store(true)
	}()
	loops.Wait()
	close(stop)
	bg.Wait()

	p := w.p
	claims := w.ticks / w.sz.claimTicks
	p.attempted = w.charges + claims + int(bgDone.Load()) + int(w.errs.Load())
	p.failed = int(w.errs.Load())
	win.close(p, w.charges+claims+int(bgDone.Load()), w.lat)
	bootLayers(p, []bootTimes{w.n.boot})
	p.layers["gen.late_us_p99"] = quantile(late, 0.99)
	charges, submitP50 := sideBySide(usageR, microEnd)
	ticks, claimP50 := sideBySide(microR, usageEnd)
	// The latency gate is the background transfers' p50: what the
	// settlement load costs the interactive path. Submit acknowledgements
	// queue behind the loop's own round, and their p50 spread up to 36%
	// between runs against 11-21% for the transfers.
	p.e2e["op_p50_ms"] = w.due.q(core.OpDirectTransfer, 0.5)
	p.e2e["work_per_s"] = charges
	p.named["transfer_p50_ms"] = p.e2e["op_p50_ms"]
	p.named["charges_per_s"] = charges
	p.named["charge_submit_p50_ms"] = submitP50
	p.named["charge_submit_p90_ms"] = w.lat.q(core.OpUsageSubmit, 0.9)
	p.named["ticks_per_s"] = ticks
	p.named["claim_submit_p50_ms"] = claimP50
	p.named["charges"] = w.charges
	p.named["ticks"] = w.ticks
	p.named["usage_round_rates"] = roundRates(usageR)
	p.named["micropay_round_rates"] = roundRates(microR)
	p.named["loops_s"] = []float64{usageEnd.Seconds(), microEnd.Seconds()}
	// Used-up chains end the run early: the usage loop stops with them.
	p.named["chains_exhausted"] = exhausted
	p.named["background_transfers"] = bgDone.Load()
	return nil
}

// background sends the banker's open-loop DirectTransfers until stop
// closes, timing each from its due time. It returns how late (µs) it
// sent each one.
func (w *settlement) background(start time.Time, stop chan struct{}, done *atomic.Int64) (late []float64) {
	var inflight sync.WaitGroup
	defer inflight.Wait()
	timer := time.NewTimer(0)
	defer timer.Stop()
	for _, op := range w.bg {
		due := start.Add(op.due)
		timer.Reset(time.Until(due))
		select {
		case <-stop:
			return late
		case <-timer.C:
		}
		late = append(late, float64(time.Since(due).Microseconds()))
		inflight.Add(1)
		go func(op bgOp) {
			defer inflight.Done()
			sent := time.Now()
			_, err := w.b.DirectTransfer(w.pop.consumers[op.from], w.pop.providers[op.to], op.amount, "")
			if err != nil {
				w.fail("DirectTransfer", err)
				return
			}
			w.lat.add(core.OpDirectTransfer, time.Since(sent))
			w.due.add(core.OpDirectTransfer, time.Since(due))
			done.Add(1)
		}(op)
	}
	return late
}

// check verifies exactly-once settlement: the GSP holds exactly the
// priced charges plus ticks x perWord, a re-submitted round is all
// duplicates and moves no money, and nothing was parked.
func (w *settlement) check() {
	p := w.p
	want := w.expected.MustAdd(currency.Amount(int64(chainPerWord) * int64(w.ticks)))
	gspBalance := func(when string) {
		a, err := w.n.ledger.Details(w.pop.gsp)
		if err != nil || a.AvailableBalance != want {
			p.failf("GSP credited %v %s, want %s (%v)", balanceOf(a), when, want, err)
		}
	}
	gspBalance("after the run")
	if w.charges > 0 {
		round := w.rounds[0]
		for i := 0; i < len(round); i += w.sz.usageBatch {
			batch := round[i:min(i+w.sz.usageBatch, len(round))]
			res, err := w.a.UsageSubmit(batch)
			if err != nil || res.Accepted != 0 || res.Duplicates != len(batch) {
				p.failf("re-submitted usage batch: %+v, %v", res, err)
				break
			}
		}
	}
	if w.ticks > 0 {
		batch := make([]micropay.Claim, len(w.chains))
		for c, ch := range w.chains {
			batch[c] = ch.claim(w.sz.claimTicks)
		}
		res, err := w.a.MicropaySubmit(batch)
		if err != nil || res.Accepted != 0 || res.Duplicates != len(batch) {
			p.failf("re-submitted micropay claims: %+v, %v", res, err)
		}
	}
	settle(func() int { return w.n.usage.Status().Pending + w.n.micropay.Status().Pending })
	gspBalance("after re-submission")
	if st := w.n.usage.Status(); st.Failed != 0 {
		p.failf("%d usage charges parked: %s", st.Failed, st.LastError)
	}
	if st := w.n.micropay.Status(); st.Failed != 0 {
		p.failf("%d micropay claims parked: %s", st.Failed, st.LastError)
	}
	checkConservation(p, w.n, w.pop.deposited)
}

func (w *settlement) result() *pass { return w.p }

func (w *settlement) close() {
	for _, c := range []*core.Client{w.a, w.b} {
		if c != nil {
			c.Close()
		}
	}
	if w.n != nil {
		w.n.close()
	}
}
