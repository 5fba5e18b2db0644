package db

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func newTestStore(t *testing.T) *Store {
	t.Helper()
	s := MustOpenMemory()
	if err := s.CreateTable("accounts"); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCreateTableDuplicate(t *testing.T) {
	s := newTestStore(t)
	if err := s.CreateTable("accounts"); !errors.Is(err, ErrDupTable) {
		t.Fatalf("duplicate create: %v", err)
	}
	if err := s.EnsureTable("accounts"); err != nil {
		t.Fatalf("EnsureTable existing: %v", err)
	}
	if err := s.EnsureTable("other"); err != nil {
		t.Fatalf("EnsureTable new: %v", err)
	}
	got := s.Tables()
	if len(got) != 2 || got[0] != "accounts" || got[1] != "other" {
		t.Fatalf("Tables() = %v", got)
	}
}

func TestBasicCRUD(t *testing.T) {
	s := newTestStore(t)
	err := s.Update(func(tx *Tx) error {
		return tx.Insert("accounts", "a1", []byte("v1"))
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.Get("accounts", "a1")
	if err != nil || string(v) != "v1" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if _, err := s.Get("accounts", "missing"); !errors.Is(err, ErrNoRecord) {
		t.Fatalf("missing Get err = %v", err)
	}
	if _, err := s.Get("nope", "a1"); !errors.Is(err, ErrNoTable) {
		t.Fatalf("missing table err = %v", err)
	}
	err = s.Update(func(tx *Tx) error {
		if err := tx.Put("accounts", "a1", []byte("v2")); err != nil {
			return err
		}
		return tx.Delete("accounts", "a1")
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("accounts", "a1"); !errors.Is(err, ErrNoRecord) {
		t.Fatalf("after delete err = %v", err)
	}
}

func TestInsertDuplicateFails(t *testing.T) {
	s := newTestStore(t)
	must(t, s.Update(func(tx *Tx) error { return tx.Insert("accounts", "a1", []byte("x")) }))
	err := s.Update(func(tx *Tx) error { return tx.Insert("accounts", "a1", []byte("y")) })
	if !errors.Is(err, ErrExists) {
		t.Fatalf("dup insert err = %v", err)
	}
	// Duplicate within the same tx.
	err = s.Update(func(tx *Tx) error {
		if err := tx.Insert("accounts", "b", []byte("1")); err != nil {
			return err
		}
		return tx.Insert("accounts", "b", []byte("2"))
	})
	if !errors.Is(err, ErrExists) {
		t.Fatalf("same-tx dup insert err = %v", err)
	}
	// Rolled back: b should not exist.
	if _, err := s.Get("accounts", "b"); !errors.Is(err, ErrNoRecord) {
		t.Fatalf("rolled-back insert visible: %v", err)
	}
}

func TestDeleteMissingFails(t *testing.T) {
	s := newTestStore(t)
	err := s.Update(func(tx *Tx) error { return tx.Delete("accounts", "ghost") })
	if !errors.Is(err, ErrNoRecord) {
		t.Fatalf("delete missing err = %v", err)
	}
}

func TestRollbackDiscards(t *testing.T) {
	s := newTestStore(t)
	tx, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	must(t, tx.Put("accounts", "a1", []byte("staged")))
	tx.Rollback()
	if _, err := s.Get("accounts", "a1"); !errors.Is(err, ErrNoRecord) {
		t.Fatalf("rollback leaked write: %v", err)
	}
	// Double rollback and post-done ops are safe/fail cleanly.
	tx.Rollback()
	if err := tx.Put("accounts", "x", nil); !errors.Is(err, ErrTxDone) {
		t.Fatalf("put after done: %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("commit after done: %v", err)
	}
}

func TestTxReadsOwnWrites(t *testing.T) {
	s := newTestStore(t)
	err := s.Update(func(tx *Tx) error {
		if err := tx.Put("accounts", "k", []byte("v")); err != nil {
			return err
		}
		v, err := tx.Get("accounts", "k")
		if err != nil || string(v) != "v" {
			return fmt.Errorf("tx read own write: %q %v", v, err)
		}
		if err := tx.Delete("accounts", "k"); err != nil {
			return err
		}
		if _, err := tx.Get("accounts", "k"); !errors.Is(err, ErrNoRecord) {
			return fmt.Errorf("tx read own delete: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIndexLookup(t *testing.T) {
	s := newTestStore(t)
	// index by value prefix before ':'
	must(t, s.CreateIndex("accounts", "byOwner", func(key string, v []byte) []string {
		owner, _, ok := strings.Cut(string(v), ":")
		if !ok {
			return nil
		}
		return []string{owner}
	}))
	must(t, s.Update(func(tx *Tx) error {
		for i, owner := range []string{"alice", "bob", "alice"} {
			if err := tx.Insert("accounts", fmt.Sprintf("a%d", i), []byte(owner+":data")); err != nil {
				return err
			}
		}
		return nil
	}))
	keys, err := s.Lookup("accounts", "byOwner", "alice")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] != "a0" || keys[1] != "a2" {
		t.Fatalf("Lookup(alice) = %v", keys)
	}
	// Update changes index membership.
	must(t, s.Update(func(tx *Tx) error { return tx.Put("accounts", "a0", []byte("carol:data")) }))
	keys, _ = s.Lookup("accounts", "byOwner", "alice")
	if len(keys) != 1 || keys[0] != "a2" {
		t.Fatalf("after move, Lookup(alice) = %v", keys)
	}
	keys, _ = s.Lookup("accounts", "byOwner", "carol")
	if len(keys) != 1 || keys[0] != "a0" {
		t.Fatalf("Lookup(carol) = %v", keys)
	}
	// Delete removes from index.
	must(t, s.Update(func(tx *Tx) error { return tx.Delete("accounts", "a2") }))
	keys, _ = s.Lookup("accounts", "byOwner", "alice")
	if len(keys) != 0 {
		t.Fatalf("after delete, Lookup(alice) = %v", keys)
	}
	if _, err := s.Lookup("accounts", "noidx", "x"); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("missing index err = %v", err)
	}
}

func TestIndexBackfillAndDuplicate(t *testing.T) {
	s := newTestStore(t)
	must(t, s.Update(func(tx *Tx) error { return tx.Insert("accounts", "a", []byte("x:1")) }))
	ixfn := func(k string, v []byte) []string { p, _, _ := strings.Cut(string(v), ":"); return []string{p} }
	must(t, s.CreateIndex("accounts", "p", ixfn))
	keys, err := s.Lookup("accounts", "p", "x")
	if err != nil || len(keys) != 1 {
		t.Fatalf("backfill lookup = %v, %v", keys, err)
	}
	if err := s.CreateIndex("accounts", "p", ixfn); !errors.Is(err, ErrDupIndex) {
		t.Fatalf("dup index err = %v", err)
	}
	if err := s.CreateIndex("nope", "p", ixfn); !errors.Is(err, ErrNoTable) {
		t.Fatalf("index on missing table err = %v", err)
	}
}

func TestTxLookupSeesOverlay(t *testing.T) {
	s := newTestStore(t)
	ixfn := func(k string, v []byte) []string { p, _, _ := strings.Cut(string(v), ":"); return []string{p} }
	must(t, s.CreateIndex("accounts", "p", ixfn))
	must(t, s.Update(func(tx *Tx) error { return tx.Insert("accounts", "a", []byte("x:1")) }))
	err := s.Update(func(tx *Tx) error {
		if err := tx.Insert("accounts", "b", []byte("x:2")); err != nil {
			return err
		}
		if err := tx.Delete("accounts", "a"); err != nil {
			return err
		}
		keys, err := tx.Lookup("accounts", "p", "x")
		if err != nil {
			return err
		}
		if len(keys) != 1 || keys[0] != "b" {
			return fmt.Errorf("tx lookup = %v, want [b]", keys)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScan(t *testing.T) {
	s := newTestStore(t)
	must(t, s.Update(func(tx *Tx) error {
		for _, k := range []string{"c", "a", "b"} {
			if err := tx.Insert("accounts", k, []byte(k)); err != nil {
				return err
			}
		}
		return nil
	}))
	var order []string
	must(t, s.Scan("accounts", func(k string, v []byte) bool {
		order = append(order, k)
		return true
	}))
	if strings.Join(order, "") != "abc" {
		t.Fatalf("scan order = %v", order)
	}
	// early stop
	order = nil
	must(t, s.Scan("accounts", func(k string, v []byte) bool {
		order = append(order, k)
		return len(order) < 2
	}))
	if len(order) != 2 {
		t.Fatalf("early-stop scan = %v", order)
	}
	n, err := s.Count("accounts")
	if err != nil || n != 3 {
		t.Fatalf("Count = %d, %v", n, err)
	}
}

func TestTxScanSeesOverlay(t *testing.T) {
	s := newTestStore(t)
	must(t, s.Update(func(tx *Tx) error {
		must(t, tx.Insert("accounts", "a", []byte("1")))
		return tx.Insert("accounts", "b", []byte("2"))
	}))
	err := s.Update(func(tx *Tx) error {
		must(t, tx.Delete("accounts", "a"))
		must(t, tx.Insert("accounts", "c", []byte("3")))
		var got []string
		if err := tx.Scan("accounts", func(k string, v []byte) bool {
			got = append(got, k+"="+string(v))
			return true
		}); err != nil {
			return err
		}
		if strings.Join(got, ",") != "b=2,c=3" {
			return fmt.Errorf("tx scan = %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUpdateRollsBackOnError(t *testing.T) {
	s := newTestStore(t)
	sentinel := errors.New("boom")
	err := s.Update(func(tx *Tx) error {
		must(t, tx.Put("accounts", "a", []byte("x")))
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("Update err = %v", err)
	}
	if _, err := s.Get("accounts", "a"); !errors.Is(err, ErrNoRecord) {
		t.Fatal("failed Update leaked a write")
	}
}

func TestConcurrentTransfersConserveSum(t *testing.T) {
	s := newTestStore(t)
	const nAcct = 8
	must(t, s.Update(func(tx *Tx) error {
		for i := 0; i < nAcct; i++ {
			if err := tx.Insert("accounts", fmt.Sprintf("a%d", i), []byte{100}); err != nil {
				return err
			}
		}
		return nil
	}))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				from := fmt.Sprintf("a%d", (seed+i)%nAcct)
				to := fmt.Sprintf("a%d", (seed+i+1)%nAcct)
				_ = s.Update(func(tx *Tx) error {
					fv, err := tx.Get("accounts", from)
					if err != nil {
						return err
					}
					tv, err := tx.Get("accounts", to)
					if err != nil {
						return err
					}
					if fv[0] == 0 {
						return nil
					}
					if err := tx.Put("accounts", from, []byte{fv[0] - 1}); err != nil {
						return err
					}
					return tx.Put("accounts", to, []byte{tv[0] + 1})
				})
			}
		}(g)
	}
	wg.Wait()
	total := 0
	must(t, s.Scan("accounts", func(k string, v []byte) bool {
		total += int(v[0])
		return true
	}))
	if total != nAcct*100 {
		t.Fatalf("sum after concurrent transfers = %d, want %d", total, nAcct*100)
	}
}

func TestClosedStore(t *testing.T) {
	s := newTestStore(t)
	must(t, s.Close())
	must(t, s.Close()) // idempotent
	if _, err := s.Get("accounts", "x"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get on closed = %v", err)
	}
	if err := s.CreateTable("t"); !errors.Is(err, ErrClosed) {
		t.Fatalf("CreateTable on closed = %v", err)
	}
	if _, err := s.Begin(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Begin on closed = %v", err)
	}
	if _, err := s.Snapshot(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Snapshot on closed = %v", err)
	}
	if _, err := s.Count("accounts"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Count on closed = %v", err)
	}
	if err := s.Scan("accounts", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Scan on closed = %v", err)
	}
	if _, err := s.Lookup("accounts", "i", "k"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Lookup on closed = %v", err)
	}
}

func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestGetReturnsDefensiveCopy(t *testing.T) {
	s := newTestStore(t)
	must(t, s.Update(func(tx *Tx) error { return tx.Insert("accounts", "a1", []byte("original")) }))
	v, err := s.Get("accounts", "a1")
	if err != nil {
		t.Fatal(err)
	}
	copy(v, "MUTATED!")
	got, err := s.Get("accounts", "a1")
	if err != nil || string(got) != "original" {
		t.Fatalf("store aliased reader mutation: %q, %v", got, err)
	}
}

func TestTxGetReturnsDefensiveCopy(t *testing.T) {
	s := newTestStore(t)
	must(t, s.Update(func(tx *Tx) error { return tx.Insert("accounts", "a1", []byte("original")) }))
	must(t, s.Update(func(tx *Tx) error {
		v, err := tx.Get("accounts", "a1")
		if err != nil {
			return err
		}
		copy(v, "MUTATED!")
		// Re-read within the same tx and from a fresh read path.
		v2, err := tx.Get("accounts", "a1")
		if err != nil || string(v2) != "original" {
			t.Fatalf("tx read aliased mutation: %q, %v", v2, err)
		}
		return nil
	}))
	got, _ := s.Get("accounts", "a1")
	if string(got) != "original" {
		t.Fatalf("store corrupted through tx read alias: %q", got)
	}
}

func TestConcurrentCreateAccountPhantom(t *testing.T) {
	// Two racing transactions both check an index for a key and insert
	// when absent — exactly the accounts-by-certificate uniqueness
	// check. The predicate validation must let exactly one win per
	// round.
	s := newTestStore(t)
	must(t, s.CreateIndex("accounts", "byName", func(k string, v []byte) []string {
		return []string{string(v)}
	}))
	const rounds = 50
	var created, refused atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				name := fmt.Sprintf("dup%d", i)
				err := s.Update(func(tx *Tx) error {
					keys, err := tx.Lookup("accounts", "byName", name)
					if err != nil {
						return err
					}
					if len(keys) > 0 {
						return fmt.Errorf("taken: %w", ErrExists)
					}
					return tx.Insert("accounts", fmt.Sprintf("g%d-%s", g, name), []byte(name))
				})
				if err == nil {
					created.Add(1)
				} else if errors.Is(err, ErrExists) {
					refused.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	if created.Load() != rounds {
		t.Fatalf("created %d accounts for %d names (phantom duplicates!)", created.Load(), rounds)
	}
}
