package main

import (
	"strings"
	"time"

	"gridbank/internal/core"
	"gridbank/internal/micropay"
	"gridbank/internal/obs"
	"gridbank/internal/usage"
)

// wireOps are the client calls the workloads make; per-op metrics are
// named after them with the dots dropped (Usage.Submit -> UsageSubmit).
var wireOps = []string{
	core.OpDirectTransfer, core.OpCheckFunds, core.OpAccountDetails,
	core.OpRequestCheque, core.OpRedeemCheque, core.OpUsageSubmit, core.OpMicropaySubmit,
}

// bankOps are the handlers whose bank and ledger self time is reported.
var bankOps = []string{core.OpDirectTransfer, core.OpRedeemCheque, core.OpCheckFunds, core.OpAccountDetails}

func opName(op string) string { return strings.ReplaceAll(op, ".", "") }

// layerDefs lists the per-layer metrics of a traced run. A layer that a
// workload does not exercise reads 0.
func layerDefs() []metricDef {
	var defs []metricDef
	for _, op := range wireOps {
		defs = append(defs, metricDef{"core.transport_us." + opName(op), "us"})
	}
	defs = append(defs, metricDef{"core.queue_wait_us", "us"}, metricDef{"core.frames_per_flush", "count"})
	for _, op := range bankOps {
		defs = append(defs, metricDef{"bank.self_us." + opName(op), "us"})
	}
	defs = append(defs,
		metricDef{"shard.cross_share", "ratio"},
		metricDef{"ledger.transfer_us.local", "us"},
		metricDef{"ledger.transfer_us.cross", "us"},
		metricDef{"shard.2pc_us.prepare", "us"},
		metricDef{"shard.2pc_us.decide", "us"},
		metricDef{"shard.2pc_us.credit", "us"},
		metricDef{"shard.2pc_us.finalize", "us"},
	)
	for _, op := range bankOps {
		defs = append(defs, metricDef{"ledger.self_us." + opName(op), "us"})
	}
	defs = append(defs,
		metricDef{"db.occ_retries_per_commit", "ratio"},
		metricDef{"db.commits_per_op", "ratio"},
		metricDef{"journal.wait_us", "us"},
		metricDef{"journal.commits_per_fsync", "ratio"},
		metricDef{"journal.fsync_us", "us"},
		metricDef{"journal.bytes_per_op", "B"},
		metricDef{"journal.fsyncs_per_op.shard", "ratio"},
		metricDef{"journal.fsyncs_per_op.spool", "ratio"},
		metricDef{"usage.charges_per_batch", "ratio"},
		metricDef{"usage.cross_share", "ratio"},
		metricDef{"usage.pinned_us", "us"},
		metricDef{"usage.spool_bytes_per_charge", "B"},
		metricDef{"usage.lag_ms_p50", "ms"},
		metricDef{"micropay.claims_per_batch", "ratio"},
		metricDef{"micropay.ticks_per_redeem_tx", "ratio"},
		metricDef{"micropay.spool_bytes_per_claim", "B"},
		metricDef{"boot.open_s", "s"},
		metricDef{"boot.replay_entries", "count"},
		metricDef{"boot.read_mb", "MB"},
		metricDef{"boot.checkpoint_s", "s"},
		metricDef{"boot.recover_s", "s"},
		metricDef{"boot.checkpoint_mb", "MB"},
		metricDef{"gen.late_us_p99", "us"},
		metricDef{"trace.overhead_pct", "%"},
	)
	for _, op := range wireOps {
		defs = append(defs, metricDef{"client.p99_ms." + opName(op), "ms"})
	}
	return defs
}

// window brackets a measured phase: registry and pipeline counters at
// its start, differenced at its end.
type window struct {
	n   *node
	reg obs.Snapshot
	us  *usage.Stats
	mp  *micropay.Stats
}

// openWindow starts a window and clears the tracer.
func openWindow(n *node) *window {
	if n.tr != nil {
		n.tr.reset()
	}
	return &window{n: n, reg: n.reg.Snapshot(), us: n.usage.Status(), mp: n.micropay.Status()}
}

// regDelta is the change of the registry's counters and histograms
// over a window.
type regDelta struct {
	counters map[string]int64
	count    map[string]int64
	sum      map[string]int64
}

func deltaOf(a, b obs.Snapshot) regDelta {
	d := regDelta{counters: map[string]int64{}, count: map[string]int64{}, sum: map[string]int64{}}
	for _, c := range b.Counters {
		d.counters[c.Name] += c.Value
	}
	for _, c := range a.Counters {
		d.counters[c.Name] -= c.Value
	}
	for _, h := range b.Hists {
		d.count[h.Name] += h.Count
		d.sum[h.Name] += h.Sum
	}
	for _, h := range a.Hists {
		d.count[h.Name] -= h.Count
		d.sum[h.Name] -= h.Sum
	}
	return d
}

func (d regDelta) mean(name string) float64 {
	return ratio(float64(d.sum[name]), float64(d.count[name]))
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// close ends the window. ops is the number of client operations it
// covered (the per-op denominator). On a traced run it fills p.layers
// from everything the window saw. It returns the counts that repeat
// exactly when the window's work is fixed: shard.cross_share and
// db.commits_per_op.
func (w *window) close(p *pass, ops int, lat *latencies) map[string]float64 {
	d := deltaOf(w.reg, w.n.reg.Snapshot())
	us, mp := w.n.usage.Status(), w.n.micropay.Status()
	settled := float64(us.Settled - w.us.Settled)
	cross := float64(us.CrossShard - w.us.CrossShard)
	batches := float64(us.Batches - w.us.Batches)
	claims := float64(mp.SettledClaims - w.mp.SettledClaims)
	ticks := float64(mp.SettledTicks - w.mp.SettledTicks)
	mbatches := float64(mp.Batches - w.mp.Batches)

	local, crossT := float64(d.counters["shard.transfers.local"]), float64(d.counters["shard.transfers.cross"])
	commits := float64(d.sum["db.commit_batch"])
	var ts *traceSnap
	if w.n.tr != nil {
		ts = w.n.tr.snap()
		commits = 0
		for k := range ts.commits {
			commits += float64(ts.commits[k].n)
		}
	}
	counts := map[string]float64{
		"shard.cross_share": ratio(crossT, local+crossT),
		"db.commits_per_op": ratio(commits, float64(ops)),
	}
	if ts == nil {
		return counts
	}
	L := p.layers
	for k, v := range counts {
		L[k] = v
	}
	var queue, qn float64
	for _, op := range wireOps {
		a := ts.ops[op]
		name := opName(op)
		if a.n > 0 {
			n := float64(a.n)
			L["core.transport_us."+name] = 1000*lat.mean(op) - micros(a.queue)/n - micros(a.handler)/n
		}
		L["client.p99_ms."+name] = lat.q(op, 0.99)
	}
	for _, a := range ts.ops {
		queue += micros(a.queue)
		qn += float64(a.n)
	}
	L["core.queue_wait_us"] = ratio(queue, qn)
	L["core.frames_per_flush"] = d.mean("server.write_batch")
	for _, op := range bankOps {
		a := ts.ops[op]
		n := float64(a.n)
		L["bank.self_us."+opName(op)] = ratio(micros(a.handler-a.ledger-a.jOutside), n)
		L["ledger.self_us."+opName(op)] = ratio(micros(a.ledger-a.jIn), n)
	}
	L["ledger.transfer_us.local"] = ts.calls["Transfer.local"].meanUS()
	L["ledger.transfer_us.cross"] = ts.calls["Transfer.cross"].meanUS()
	for _, ph := range []string{"prepare", "decide", "credit", "finalize"} {
		L["shard.2pc_us."+ph] = d.mean("shard.2pc." + ph)
	}
	L["db.occ_retries_per_commit"] = ratio(float64(d.counters["db.occ_retries"]), commits)

	sh := ts.files[kindShard]
	spoolSyncs := float64(ts.files[kindUsage].sync.n + ts.files[kindMicropay].sync.n)
	var wait durAcc
	var fsync durAcc
	for k := range ts.commits {
		wait.n += ts.commits[k].n
		wait.total += ts.commits[k].total
		fsync.n += ts.files[k].sync.n
		fsync.total += ts.files[k].sync.total
	}
	L["journal.wait_us"] = wait.meanUS()
	L["journal.commits_per_fsync"] = ratio(float64(ts.commits[kindShard].n), float64(sh.sync.n))
	L["journal.fsync_us"] = fsync.meanUS()
	L["journal.bytes_per_op"] = ratio(float64(sh.written), float64(ops))
	L["journal.fsyncs_per_op.shard"] = ratio(float64(sh.sync.n), float64(ops))
	L["journal.fsyncs_per_op.spool"] = ratio(spoolSyncs, float64(ops))

	L["usage.charges_per_batch"] = ratio(settled-cross, batches)
	L["usage.pinned_us"] = ts.calls["pinned"].meanUS()
	L["usage.spool_bytes_per_charge"] = ratio(float64(ts.files[kindUsage].written), settled)
	L["micropay.claims_per_batch"] = ratio(claims, mbatches)
	L["micropay.ticks_per_redeem_tx"] = ratio(ticks, mbatches)
	L["micropay.spool_bytes_per_claim"] = ratio(float64(ts.files[kindMicropay].written), claims)
	return counts
}

// bootLayers fills the boot.* metrics from the boots a run timed.
func bootLayers(p *pass, boots []bootTimes) {
	if len(boots) == 0 {
		return
	}
	var open, ckpt, rec time.Duration
	var replayed uint64
	var read, written int64
	for _, b := range boots {
		open += b.open
		ckpt += b.checkpoint
		rec += b.recover
		replayed += b.replayed
		read += b.read
		written += b.written
	}
	n := float64(len(boots))
	p.exact["boot.replay_entries"] = float64(replayed) / n
	p.layers["boot.replay_entries"] = float64(replayed) / n
	p.layers["boot.open_s"] = open.Seconds() / n
	p.layers["boot.checkpoint_s"] = ckpt.Seconds() / n
	p.layers["boot.recover_s"] = rec.Seconds() / n
	p.layers["boot.read_mb"] = float64(read) / n / 1e6
	p.layers["boot.checkpoint_mb"] = float64(written) / n / 1e6
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
