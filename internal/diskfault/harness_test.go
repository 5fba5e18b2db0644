package diskfault_test

// The storage-fault harness: the node gridbankd runs (internal/node:
// a sharded ledger plus the usage and micropay pipelines, in the
// daemon's data-dir layout and boot order) booted entirely over a
// diskfault Disk, so every durability seam — shard WAL flushes, spool
// WALs, checkpoint writes, the publishing rename, dir-fsync, Compact,
// the shard-count marker — can be killed or corrupted
// deterministically, the whole node crashed, and the rebooted node
// checked for the three invariants that define storage fault tolerance
// here:
//
//  1. conservation — not a micro-G$ created or destroyed, ever;
//  2. exactly-once — every charge settles once and every chain word
//     credits once, across any number of crashes and resubmissions;
//  3. typed refusal — every error a fault surfaces is either the
//     injected fault itself (maintenance paths) or ErrStorageFailed
//     (commit paths); silence is never an acceptable outcome.
//
// Everything runs from seeds: a failing schedule replays byte-for-byte
// from the seed named in the failure message.

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"gridbank/internal/accounts"
	"gridbank/internal/currency"
	"gridbank/internal/db"
	"gridbank/internal/diskfault"
	"gridbank/internal/micropay"
	"gridbank/internal/node"
	"gridbank/internal/payment"
	"gridbank/internal/pki"
	"gridbank/internal/rur"
	"gridbank/internal/usage"
	"gridbank/internal/wire"
)

var harnessEpoch = time.Date(2026, 3, 4, 5, 6, 7, 0, time.UTC)

// world is one gridbankd node on a fault-injected disk: the daemon's
// defaults except -shards 2 and both pipelines on without workers
// (settlement only via SettleOnce/Drain: schedules stay deterministic).
type world struct {
	*node.Node // nil between shutdown and the next boot
	t          *testing.T
	d          *diskfault.Disk
	spec       node.Spec

	drawer  accounts.ID
	xferTo  accounts.ID // cross-shard from drawer: transfers exercise 2PC
	usageTo accounts.ID
	payee   accounts.ID
	total   currency.Amount
}

// nodeSpec is the node a world boots, writing WALs in codec.
func nodeSpec(t *testing.T, d *diskfault.Disk, codec string) node.Spec {
	t.Helper()
	ca, err := pki.NewCA("VO-X CA", "VO-X", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	bankID, err := ca.Issue(pki.IssueOptions{CommonName: "bank", Organization: "VO-X", IsServer: true})
	if err != nil {
		t.Fatal(err)
	}
	pipe := node.Pipeline{Enabled: true, Workers: -1, Batch: 64, Queue: 4096}
	return node.Spec{
		Dir: "/data", FS: d, Now: func() time.Time { return harnessEpoch },
		Shards: 2, Branch: "0001", Sync: true, Checkpoint: true, WALCodec: codec,
		Usage: pipe, Micropay: pipe,
		Identity: bankID, Trust: pki.NewTrustStore(ca.Certificate()),
	}
}

// boot (re)builds the whole node from the disk: journals reopen (torn
// tails settle), checkpoints verify and fall back, the checkpoint pass
// runs, 2PC recovers, the pipelines requeue what their spools held.
func (w *world) boot() error {
	n, err := node.Open(w.spec)
	w.Node = n
	return err
}

// reboot models power loss + restart: the disk drops everything
// volatile (with a torn tail if so configured) and the node rebuilds
// from what was durable.
func (w *world) reboot() error {
	w.shutdown()
	w.d.Crash()
	return w.boot()
}

// shutdown drops the current process generation. Errors are ignored:
// the process is "dying", and poisoned stores refuse cleanly anyway.
func (w *world) shutdown() {
	if w.Node != nil {
		w.Close()
		w.Node = nil
	}
}

// newWorld builds a funded deployment (clean disk, no faults armed).
func newWorld(t *testing.T, d *diskfault.Disk, codec string) *world {
	t.Helper()
	w := &world{t: t, d: d, spec: nodeSpec(t, d, codec)}
	if err := w.boot(); err != nil {
		t.Fatalf("initial boot: %v", err)
	}
	drawer, err := w.Ledger.CreateAccount("CN=alice", "VO-X", "")
	if err != nil {
		t.Fatal(err)
	}
	w.drawer = drawer.AccountID
	ds := w.Ledger.ShardFor(w.drawer)
	for i := 0; w.xferTo == "" || w.usageTo == ""; i++ {
		if i > 10000 {
			t.Fatal("could not place partner accounts")
		}
		a, err := w.Ledger.CreateAccount(fmt.Sprintf("CN=partner-%d", i), "VO-X", "")
		if err != nil {
			t.Fatal(err)
		}
		if w.Ledger.ShardFor(a.AccountID) != ds {
			if w.xferTo == "" {
				w.xferTo = a.AccountID // cross-shard: transfers run 2PC
			}
		} else if w.usageTo == "" {
			w.usageTo = a.AccountID
		}
	}
	p, err := w.Ledger.CreateAccount("CN=payee", "VO-X", "")
	if err != nil {
		t.Fatal(err)
	}
	w.payee = p.AccountID
	if err := w.Ledger.Deposit(w.drawer, currency.FromG(10000)); err != nil {
		t.Fatal(err)
	}
	if w.total, err = w.Ledger.TotalBalance(); err != nil {
		t.Fatal(err)
	}
	return w
}

// assertConverged checks conservation and full 2PC resolution after a
// reboot. Returned (not fataled) so soak failures can name their seed.
func (w *world) assertConverged() error {
	esc, err := w.Ledger.PendingEscrow()
	if err != nil {
		return err
	}
	if !esc.IsZero() {
		return fmt.Errorf("escrow %v left after recovery", esc)
	}
	total, err := w.Ledger.TotalBalance()
	if err != nil {
		return err
	}
	if total != w.total {
		return fmt.Errorf("conservation violated: %v -> %v", w.total, total)
	}
	return nil
}

// settleAll resubmits every charge ever issued (the idempotency key
// dedupes survivors), drains both pipelines, and checks exactly-once by
// balance arithmetic, conservation, and that no storage fault parked an
// item terminal. Returned (not fataled) so soak failures name the seed.
func (w *world) settleAll(chargeIDs []string, chains []*chainFixture, wait time.Duration) error {
	for _, id := range chargeIDs {
		if err := w.submitCharge(id); err != nil {
			return fmt.Errorf("resubmit %s: %w", id, err)
		}
	}
	if _, err := w.Usage.Drain(wait); err != nil {
		return fmt.Errorf("usage drain: %w", err)
	}
	a, err := w.Ledger.Details(w.usageTo)
	if err != nil {
		return err
	}
	if want := currency.FromG(int64(len(chargeIDs))); a.AvailableBalance != want {
		return fmt.Errorf("usage recipient %s; want %s — a charge settled zero or multiple times", a.AvailableBalance, want)
	}
	if _, err := w.Micropay.Drain(wait); err != nil {
		return fmt.Errorf("micropay drain: %w", err)
	}
	var payeeWant int64
	for _, c := range chains {
		row, err := w.Bank.ChainRedeemer().Get(c.ch.Commitment.Serial)
		if err != nil {
			return fmt.Errorf("chain row: %w", err)
		}
		payeeWant += c.perWord.Micro() * int64(row.RedeemedIndex)
	}
	pa, err := w.Ledger.Details(w.payee)
	if err != nil {
		return err
	}
	if pa.AvailableBalance != currency.FromMicro(payeeWant) {
		return fmt.Errorf("payee %s; want %s — a chain word credited zero or multiple times",
			pa.AvailableBalance, currency.FromMicro(payeeWant))
	}
	if err := w.assertConverged(); err != nil {
		return err
	}
	if us, ms := w.Usage.Status(), w.Micropay.Status(); us.Failed != 0 || ms.Failed != 0 {
		return fmt.Errorf("storage faults parked terminal: usage %d, micropay %d", us.Failed, ms.Failed)
	}
	return nil
}

// storageTyped reports whether err carries the contract the harness
// accepts from an injected fault: the typed fail-stop error on commit
// paths, or the injected fault itself on maintenance paths.
func storageTyped(err error) bool {
	return errors.Is(err, db.ErrStorageFailed) || errors.Is(err, diskfault.ErrInjected)
}

// chainFixture is one payment chain under test.
type chainFixture struct {
	ch      *payment.Chain
	perWord currency.Amount
	next    int // next index to claim
}

func issueChain(t *testing.T, w *world, length int) *chainFixture {
	t.Helper()
	perWord := currency.FromG(1)
	ch, err := payment.NewChain(w.drawer, "CN=alice", "CN=payee", length, perWord,
		currency.GridDollar, harnessEpoch, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	total, err := ch.Commitment.Total()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Ledger.CheckFunds(w.drawer, total); err != nil {
		t.Fatal(err)
	}
	if err := w.Bank.ChainRedeemer().Put(&micropay.ChainRow{Commitment: ch.Commitment, State: micropay.StateOutstanding}); err != nil {
		t.Fatal(err)
	}
	return &chainFixture{ch: ch, perWord: perWord, next: 1}
}

func flatRates() *rur.RateCard {
	rates := map[rur.Item]currency.Rate{rur.ItemCPU: currency.PerHour(currency.Scale)}
	for _, item := range rur.AllItems {
		if _, ok := rates[item]; !ok {
			rates[item] = currency.ZeroRate
		}
	}
	return &rur.RateCard{Provider: "CN=provider", Currency: currency.GridDollar, Rates: rates}
}

// encodedRUR builds a record worth exactly 1 G$ under flatRates.
func encodedRUR(t *testing.T, jobID string) []byte {
	t.Helper()
	rec := &rur.Record{
		User:     rur.UserDetails{CertificateName: "CN=alice"},
		Job:      rur.JobDetails{JobID: jobID, Application: "sim", Start: harnessEpoch, End: harnessEpoch.Add(time.Hour)},
		Resource: rur.ResourceDetails{Host: "h", CertificateName: "CN=provider", LocalJobID: "pid"},
	}
	rec.SetQuantity(rur.ItemCPU, 3600)
	raw, err := rur.Encode(rec, rur.FormatJSON)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// claimNext submits c's next chain word to the micropay pipeline.
func (w *world) claimNext(c *chainFixture) error {
	word, err := c.ch.Word(c.next)
	if err != nil {
		w.t.Fatal(err)
	}
	_, err = w.Micropay.Submit("CN=payee", []micropay.Claim{{Serial: c.ch.Commitment.Serial, Index: c.next, Word: word}})
	c.next++
	return err
}

func (w *world) submitCharge(id string) error {
	_, err := w.Usage.Submit([]usage.Submission{{
		ID: id, Drawer: w.drawer, Recipient: w.usageTo,
		RUR: encodedRUR(w.t, id), Rates: flatRates(),
	}})
	return err
}

// TestEveryDurabilityBoundaryFailStop is the deterministic matrix: one
// scripted fault per durability seam, traffic driven into it, then a
// crash and reboot with the three invariants checked. WAL seams must
// surface ErrStorageFailed and poison only their own component;
// checkpoint seams must fail the maintenance pass without poisoning
// the live store.
func TestEveryDurabilityBoundaryFailStop(t *testing.T) {
	cases := []struct {
		name string
		rule diskfault.Rule
		// wal: the fault lands on a commit path and must produce at
		// least one ErrStorageFailed. Otherwise it lands on the
		// checkpoint path: maintenance fails, stores stay healthy.
		wal bool
	}{
		{"shard0-wal-write-enospc", diskfault.Rule{PathSuffix: "ledger.wal", Op: diskfault.OpWrite, Nth: 1, Err: diskfault.ErrNoSpace, Sticky: true}, true},
		{"shard0-wal-fsync", diskfault.Rule{PathSuffix: "ledger.wal", Op: diskfault.OpSync, Nth: 1, Err: diskfault.ErrIO, Sticky: true}, true},
		{"shard1-wal-fsync", diskfault.Rule{PathSuffix: "ledger-1.wal", Op: diskfault.OpSync, Nth: 1, Err: diskfault.ErrIO, Sticky: true}, true},
		{"usage-spool-write-short", diskfault.Rule{PathSuffix: "usage.wal", Op: diskfault.OpWrite, Nth: 1, Err: diskfault.ErrNoSpace, ShortBytes: 7, Sticky: true}, true},
		{"usage-spool-fsync", diskfault.Rule{PathSuffix: "usage.wal", Op: diskfault.OpSync, Nth: 1, Err: diskfault.ErrIO, Sticky: true}, true},
		{"micropay-spool-fsync", diskfault.Rule{PathSuffix: "micropay.wal", Op: diskfault.OpSync, Nth: 1, Err: diskfault.ErrIO, Sticky: true}, true},
		{"checkpoint-write", diskfault.Rule{PathSuffix: "ledger.ckpt.tmp", Op: diskfault.OpWrite, Nth: 1, Err: diskfault.ErrNoSpace}, false},
		{"checkpoint-fsync", diskfault.Rule{PathSuffix: "ledger.ckpt.tmp", Op: diskfault.OpSync, Nth: 1, Err: diskfault.ErrIO}, false},
		{"checkpoint-rename", diskfault.Rule{PathSuffix: "ledger.ckpt.tmp", Op: diskfault.OpRename, Nth: 1, Err: diskfault.ErrIO}, false},
		{"checkpoint-dir-fsync", diskfault.Rule{PathSuffix: "/data", Op: diskfault.OpSyncDir, Nth: 1, Err: diskfault.ErrIO}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Both WAL generations the daemon can run on: bin1 (the
			// default) and JSON data dirs.
			for _, codec := range []string{wire.CodecBin1, wire.CodecJSON} {
				t.Run(codec, func(t *testing.T) {
					d := diskfault.New(diskfault.Config{Seed: 0xD15C, TornCrash: true})
					w := newWorld(t, d, codec)
					chain := issueChain(t, w, 8)

					// Clean warm-up traffic: an acked prefix the reboot must keep.
					if _, err := w.Ledger.Transfer(w.drawer, w.xferTo, currency.FromG(1), accounts.TransferOptions{}); err != nil {
						t.Fatal(err)
					}
					if err := w.submitCharge("warm-0"); err != nil {
						t.Fatal(err)
					}
					if _, err := w.Usage.SettleOnce(); err != nil {
						t.Fatal(err)
					}
					if err := w.claimNext(chain); err != nil {
						t.Fatal(err)
					}
					if _, err := w.Micropay.SettleOnce(); err != nil {
						t.Fatal(err)
					}

					d.AddRule(tc.rule)

					// Drive every kind of traffic into the armed fault.
					var faultErrs []error
					note := func(err error) {
						if err == nil {
							return
						}
						if !storageTyped(err) {
							t.Fatalf("fault surfaced untyped: %v", err)
						}
						faultErrs = append(faultErrs, err)
					}
					_, err := w.Ledger.Transfer(w.drawer, w.xferTo, currency.FromG(1), accounts.TransferOptions{})
					note(err)
					note(w.submitCharge("doomed-0"))
					_, err = w.Usage.SettleOnce()
					note(err)
					note(w.claimNext(chain))
					_, err = w.Micropay.SettleOnce()
					note(err)
					mErr := w.Checkpoint()
					if tc.wal {
						if len(faultErrs) == 0 && mErr == nil {
							t.Fatal("no operation surfaced the injected WAL fault")
						}
						if mErr != nil && !storageTyped(mErr) {
							t.Fatalf("maintenance error untyped: %v", mErr)
						}
					} else {
						if mErr == nil {
							t.Fatal("maintenance should fail under checkpoint fault")
						}
						if !errors.Is(mErr, diskfault.ErrInjected) {
							t.Fatalf("maintenance error = %v; want the injected fault", mErr)
						}
						// A checkpoint failure must NOT poison the live store.
						if _, err := w.Ledger.Transfer(w.drawer, w.xferTo, currency.FromG(1), accounts.TransferOptions{}); err != nil {
							t.Fatalf("store poisoned by checkpoint failure: %v", err)
						}
					}

					// Power loss, reboot, invariants.
					d.ClearRules()
					if err := w.reboot(); err != nil {
						t.Fatalf("reboot: %v", err)
					}
					if err := w.assertConverged(); err != nil {
						t.Fatal(err)
					}
					if err := w.settleAll([]string{"warm-0", "doomed-0"}, []*chainFixture{chain}, 5*time.Second); err != nil {
						t.Fatal(err)
					}
				})
			}
		})
	}
}

// TestHarnessTypedRefusalOnUnrecoverableCorruption: when a shard's only
// checkpoint generation rots after its journal was compacted, the node
// must refuse to boot with ErrNoIntactHistory — never serve silently
// rolled-back balances.
func TestHarnessTypedRefusalOnUnrecoverableCorruption(t *testing.T) {
	d := diskfault.New(diskfault.Config{Seed: 77})
	w := newWorld(t, d, wire.CodecBin1)
	if err := w.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Second maintenance pass compacts past the only intact span the
	// first checkpoint's generation could bridge.
	if _, err := w.Ledger.Transfer(w.drawer, w.xferTo, currency.FromG(1), accounts.TransferOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := w.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	w.shutdown()
	d.Crash()
	if _, ckpt := node.ShardFiles("/data", 0); !d.Corrupt(ckpt, 40, 0xFF) {
		t.Fatal("corrupt missed")
	}
	err := w.boot()
	if !errors.Is(err, db.ErrNoIntactHistory) {
		t.Fatalf("boot = %v; want ErrNoIntactHistory", err)
	}
}

// TestShardMarkerSurvivesCrashAfterFirstBoot: power loss right after a
// first boot still reboots under the same shard count. That boot skips
// the checkpoint pass, whose dir-fsync would cover for a volatile
// marker rename; several seeds, as a torn crash may keep an unsynced
// marker by chance.
func TestShardMarkerSurvivesCrashAfterFirstBoot(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		d := diskfault.New(diskfault.Config{Seed: seed, TornCrash: true})
		w := &world{t: t, d: d, spec: nodeSpec(t, d, wire.CodecBin1)}
		w.spec.Checkpoint = false
		if err := w.boot(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		w.spec.Checkpoint = true
		if err := w.reboot(); err != nil {
			t.Fatalf("seed %d: reboot after crash: %v", seed, err)
		}
		w.shutdown()
	}
}

// soakSeeds returns the seed list: GRIDBANK_DISKFAULT_SEEDS (comma
// separated) or a small default for the ordinary test run. CI's soak
// step passes a wider list.
func soakSeeds(t *testing.T) []uint64 {
	env := os.Getenv("GRIDBANK_DISKFAULT_SEEDS")
	if env == "" {
		return []uint64{1, 2, 3}
	}
	var seeds []uint64
	for _, f := range strings.Split(env, ",") {
		n, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
		if err != nil {
			t.Fatalf("GRIDBANK_DISKFAULT_SEEDS: %v", err)
		}
		seeds = append(seeds, n)
	}
	return seeds
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// TestDiskfaultSeededSoak runs randomized rounds per seed: arm a
// seeded-random fault, drive mixed traffic (2PC transfers, usage
// settlement, micropay redemption, checkpoint+compact maintenance),
// crash with torn tails, reboot, and assert convergence — then a final
// clean phase proves exactly-once end-to-end. Every failure names its
// seed; GRIDBANK_DISKFAULT_SEEDS replays or widens the schedule.
func TestDiskfaultSeededSoak(t *testing.T) {
	targets := []struct {
		suffix string
		op     diskfault.Op
	}{
		{"ledger.wal", diskfault.OpWrite},
		{"ledger.wal", diskfault.OpSync},
		{"ledger-1.wal", diskfault.OpSync},
		{"usage.wal", diskfault.OpSync},
		{"usage.wal", diskfault.OpWrite},
		{"micropay.wal", diskfault.OpSync},
		{"ledger.ckpt.tmp", diskfault.OpWrite},
		{"ledger-1.ckpt.tmp", diskfault.OpSync},
		{"usage.ckpt.tmp", diskfault.OpRename},
		{"/data", diskfault.OpSyncDir},
	}
	for _, seed := range soakSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("seed %d: %s", seed, fmt.Sprintf(format, args...))
			}
			d := diskfault.New(diskfault.Config{Seed: seed, TornCrash: true})
			w := newWorld(t, d, wire.CodecBin1)
			chains := []*chainFixture{issueChain(t, w, 12), issueChain(t, w, 12)}
			var chargeIDs []string

			const rounds = 4
			for round := 0; round < rounds; round++ {
				rng := splitmix(seed*1000003 + uint64(round))
				tgt := targets[rng%uint64(len(targets))]
				rule := diskfault.Rule{
					PathSuffix: tgt.suffix,
					Op:         tgt.op,
					Nth:        1 + int(splitmix(rng)%4),
					Err:        diskfault.ErrIO,
					Sticky:     splitmix(rng+1)%2 == 0,
				}
				if tgt.op == diskfault.OpWrite {
					rule.Err = diskfault.ErrNoSpace
					rule.ShortBytes = int(splitmix(rng+2) % 16)
				}
				d.AddRule(rule)

				note := func(err error) {
					if err != nil && !storageTyped(err) {
						fail("round %d (%s/%s): untyped fault error: %v", round, tgt.suffix, tgt.op, err)
					}
				}
				for k := 0; k < 3; k++ {
					_, err := w.Ledger.Transfer(w.drawer, w.xferTo, currency.FromG(1), accounts.TransferOptions{})
					note(err)
				}
				for k := 0; k < 3; k++ {
					id := fmt.Sprintf("charge-%d-%d-%d", seed, round, k)
					chargeIDs = append(chargeIDs, id)
					note(w.submitCharge(id))
				}
				_, err := w.Usage.SettleOnce()
				note(err)
				for _, c := range chains {
					if c.next > c.ch.Commitment.Length {
						continue
					}
					note(w.claimNext(c))
				}
				_, err = w.Micropay.SettleOnce()
				note(err)
				note(w.Checkpoint())

				d.ClearRules()
				if err := w.reboot(); err != nil {
					fail("round %d reboot: %v", round, err)
				}
				if err := w.assertConverged(); err != nil {
					fail("round %d: %v", round, err)
				}
			}

			// Final clean phase: every charge and chain word settles
			// exactly once.
			if err := w.settleAll(chargeIDs, chains, 10*time.Second); err != nil {
				fail("final: %v", err)
			}
		})
	}
}
