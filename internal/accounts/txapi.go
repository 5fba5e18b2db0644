package accounts

import (
	"time"

	"gridbank/internal/currency"
	"gridbank/internal/db"
)

// Transaction-scoped ledger primitives for the sharding layer and the
// settlement pipelines.
//
// A cross-shard transfer cannot go through Manager.Transfer — each of
// its sides lives on a different store — so the two-phase-commit
// coordinator in internal/shard composes its own db transactions:
// reserve-and-prepare on the debit shard, credit-and-mark on the credit
// shard, finalize on the debit shard. Each of those steps must mutate
// an ACCOUNT row, append the proper §5.1 TRANSACTION/TRANSFER records
// and write the coordinator's own bookkeeping rows atomically, in one
// db.Tx per step. These helpers expose exactly the row-level operations
// that requires, nothing more; every invariant beyond single-row
// encoding (conservation, non-negative locks) remains the caller's to
// uphold across the composed transaction.

// GetAccountTx reads and decodes an ACCOUNT row inside tx.
func GetAccountTx(tx *db.Tx, id ID) (*Account, error) {
	return getAccount(tx, id)
}

// PutAccountTx encodes and writes an ACCOUNT row inside tx.
func PutAccountTx(tx *db.Tx, a *Account) error {
	return putAccount(tx, a)
}

// AppendTransactionTx appends a TRANSACTION row inside tx, allocating
// the ID from the manager's allocator when t.TransactionID is zero, and
// returns the ID used.
func (m *Manager) AppendTransactionTx(tx *db.Tx, t *Transaction) (uint64, error) {
	return m.appendTransaction(tx, t)
}

// InsertTransferTx inserts a TRANSFER record inside tx under its
// canonical key. rec.TransactionID must already be set.
func (m *Manager) InsertTransferTx(tx *db.Tx, rec *Transfer) error {
	return tx.Insert(tableTransfers, transferKey(rec.TransactionID), encodeTransfer(rec))
}

// RecordTransferTx writes the §5.1 records of one transfer inside tx:
// the drawer's debit and the recipient's credit TRANSACTION rows under
// one allocated ID, and the TRANSFER record carrying rur as evidence.
// Moving the balances is the caller's, in the same tx. Returns the ID.
func (m *Manager) RecordTransferTx(tx *db.Tx, drawer, recipient ID, amount currency.Amount, date time.Time, rur []byte) (uint64, error) {
	neg, err := amount.Neg()
	if err != nil {
		return 0, err
	}
	txID, err := m.appendTransaction(tx, &Transaction{AccountID: drawer, Type: TxTransfer, Date: date, Amount: neg})
	if err != nil {
		return 0, err
	}
	if _, err := m.appendTransaction(tx, &Transaction{TransactionID: txID, AccountID: recipient, Type: TxTransfer, Date: date, Amount: amount}); err != nil {
		return 0, err
	}
	return txID, m.InsertTransferTx(tx, &Transfer{
		TransactionID: txID, Date: date, DrawerAccountID: drawer, Amount: amount,
		RecipientAccountID: recipient, ResourceUsageRecord: rur,
	})
}

// PutTransferTx overwrites a TRANSFER record inside tx (cancellation
// marking).
func (m *Manager) PutTransferTx(tx *db.Tx, rec *Transfer) error {
	return tx.Put(tableTransfers, transferKey(rec.TransactionID), encodeTransfer(rec))
}

// GetTransferTx reads a TRANSFER record inside tx.
func (m *Manager) GetTransferTx(tx *db.Tx, txID uint64) (*Transfer, error) {
	raw, err := tx.Get(tableTransfers, transferKey(txID))
	if err != nil {
		return nil, err
	}
	return decodeTransfer(raw)
}

// MaxReversalID scans the TRANSFER records for the highest pinned
// ReversalID. A reversal ID is allocated and durably pinned before its
// compensating transfer writes any row of its own, so after a crash it
// may exist nowhere but inside a transfer record's value — the sharded
// ledger folds this into its transaction-ID seeding so a fresh transfer
// can never collide with a pending cancellation.
func (m *Manager) MaxReversalID() (uint64, error) {
	var maxID uint64
	var scanErr error
	err := m.store.Scan(tableTransfers, func(_ string, value []byte) bool {
		tr, err := decodeTransfer(value)
		if err != nil {
			scanErr = err
			return false
		}
		if tr.ReversalID > maxID {
			maxID = tr.ReversalID
		}
		return true
	})
	if err != nil {
		return 0, err
	}
	return maxID, scanErr
}
