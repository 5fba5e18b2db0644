package shard

import (
	"errors"
	"fmt"
	"time"

	"gridbank/internal/accounts"
	"gridbank/internal/currency"
	"gridbank/internal/db"
)

// Keyed (idempotent) cross-shard transfers.
//
// A same-shard keyed transfer is easy: the accounts manager checks and
// spends the op_dedup marker inside the one transaction that moves the
// money. A cross-shard transfer has no single transaction, so this file
// applies the usage pipeline's write-ahead discipline instead: allocate
// the transaction ID, durably pin it in the drawer shard's op_dedup
// marker, then drive the ordinary 2PC transfer under that pinned ID. A
// retry of the same key finds the marker, resolves the pinned GID's
// in-doubt 2PC state, and either returns the recorded transfer or
// re-drives the identical protocol — the money moves at most once.

// keyedCrossTransfer runs one cross-shard transfer idempotently under
// opts.DedupKey. fs is the drawer's shard (where the marker and the 2PC
// coordinator log live).
func (l *Ledger) keyedCrossTransfer(fs int, drawer, recipient accounts.ID, amount currency.Amount, opts accounts.TransferOptions) (*accounts.Transfer, error) {
	l.dedupMu.Lock()
	defer l.dedupMu.Unlock()
	mgr := l.mgrs[fs]
	mk, err := mgr.GetDedup(opts.DedupKey)
	if err != nil {
		return nil, err
	}
	if mk == nil {
		// First attempt: pin the allocated ID before any 2PC row
		// exists, so a crash at any later point leaves a marker a retry
		// (or startup seeding) can see.
		mk = &accounts.DedupMarker{Key: opts.DedupKey, TxID: l.txSeq.Add(1), Date: l.now()}
		err := l.stores[fs].Update(func(tx *db.Tx) error {
			return mgr.PutDedupTx(tx, mk)
		})
		if err != nil {
			return nil, err
		}
		return l.crossTransferWithID(mk.TxID, drawer, recipient, amount, opts, false)
	}
	// Retry: the pinned ID's recorded fate decides; re-drive if unpaid.
	return DrivePinned(l, fs, mk.TxID, drawer, recipient, amount, opts)
}

// PinnedLedger is the surface DrivePinned drives a pinned transfer
// through. *Ledger implements it, and so does the settlement pipelines'
// cross-shard ledger interface.
type PinnedLedger interface {
	// ResolveInDoubt finishes or aborts a pinned transfer's 2PC state.
	ResolveInDoubt(debitShard int, txID uint64) error
	// GetTransfer reports whether (and what) a pinned ID settled.
	GetTransfer(txID uint64) (*accounts.Transfer, error)
	// TransferWithID drives a cross-shard transfer under a pinned ID.
	TransferWithID(txID uint64, drawer, recipient accounts.ID, amount currency.Amount, opts accounts.TransferOptions) (*accounts.Transfer, error)
}

// DrivePinned finishes the cross-shard transfer pinned at txID, whose
// coordinator log lives on debitShard. It first settles the fate of any
// earlier attempt exactly as startup recovery would — presume-abort a
// prepared-only one, complete a committed one — so the transfer record
// is then the single source of truth: found, it is returned; missing,
// the same transfer is driven again under the same ID. The money moves
// at most once however often a crashed caller retries.
func DrivePinned(l PinnedLedger, debitShard int, txID uint64, drawer, recipient accounts.ID, amount currency.Amount, opts accounts.TransferOptions) (*accounts.Transfer, error) {
	if err := l.ResolveInDoubt(debitShard, txID); err != nil {
		return nil, fmt.Errorf("shard: resolving pinned transfer %d: %w", txID, err)
	}
	tr, err := l.GetTransfer(txID)
	if !errors.Is(err, accounts.ErrNoSuchTransfer) {
		return tr, err
	}
	return l.TransferWithID(txID, drawer, recipient, amount, opts)
}

// SweepDedup removes op_dedup markers older than cutoff on every shard,
// reporting the total removed. Markers still pinning an unresolved
// cross-shard transfer are settled by recovery before the sweep so the
// pin is never yanked out from under an in-doubt GID.
func (l *Ledger) SweepDedup(cutoff time.Time) (int, error) {
	l.dedupMu.Lock()
	defer l.dedupMu.Unlock()
	if len(l.stores) > 1 {
		if err := l.Recover(); err != nil {
			return 0, err
		}
	}
	total := 0
	for _, mgr := range l.mgrs {
		n, err := mgr.SweepDedup(cutoff)
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}
