package spool_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridbank/internal/accounts"
	"gridbank/internal/db"
	"gridbank/internal/obs"
	"gridbank/internal/shard/simtest"
	"gridbank/internal/spool"
)

const table = "test_spool"

var (
	errClosed    = errors.New("test: closed")
	errOverload  = errors.New("test: overloaded")
	errStalled   = errors.New("test: stalled")
	errTimeout   = errors.New("test: timeout")
	errTransient = errors.New("test: transient fault")
	errRefused   = errors.New("test: refused for good")
)

// row is a minimal workload row.
type row struct {
	Key      string      `json:"key"`
	Drawer   accounts.ID `json:"drawer"`
	State    string      `json:"state"`
	Reason   string      `json:"reason,omitempty"`
	Enqueued time.Time   `json:"enqueued"`
}

func (r row) SpoolKey() string         { return r.Key }
func (r row) SpoolDrawer() accounts.ID { return r.Drawer }
func (r row) Pending() bool            { return r.State == spool.StatePending }
func (r row) EnqueuedAt() time.Time    { return r.Enqueued }

func (r row) Parked(reason string) row {
	r.State, r.Reason = spool.StateFailed, reason
	return r
}

var epoch = time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)

func rows(drawer accounts.ID, keys ...string) []row {
	out := make([]row, len(keys))
	for i, k := range keys {
		out[i] = row{Key: k, Drawer: drawer, State: spool.StatePending, Enqueued: epoch}
	}
	return out
}

// settleAll finishes every row of a batch.
func settleAll(b *spool.Batch[row]) error { return b.Cleanup(b.Rows, nil) }

// newPipe builds a synchronous pipeline (no workers) over st with the
// given settle callback; mod adjusts the config before New.
func newPipe(t *testing.T, st *db.Store, settle func(*spool.Batch[row]) error, mod func(*spool.Config[row])) *spool.Pipeline[row] {
	t.Helper()
	cfg := spool.Config[row]{
		Name: "test", Spool: st, Table: table,
		ShardFor:  func(accounts.ID) int { return 0 },
		Workers:   -1,
		Now:       func() time.Time { return epoch },
		ErrClosed: errClosed, ErrOverloaded: errOverload,
		ErrDrainStalled: errStalled, ErrDrainTimeout: errTimeout,
		Settle:   settle,
		Terminal: func(err error) bool { return errors.Is(err, errRefused) },
	}
	if mod != nil {
		mod(&cfg)
	}
	p, err := spool.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	t.Cleanup(func() { p.Close() })
	return p
}

func submit(t *testing.T, p *spool.Pipeline[row], rs []row) *spool.Intake {
	t.Helper()
	in, err := p.Submit(rs)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	return in
}

func spooledRow(t *testing.T, st *db.Store, key string) (row, bool) {
	t.Helper()
	raw, err := st.Get(table, key)
	if errors.Is(err, db.ErrNoRecord) {
		return row{}, false
	}
	if err != nil {
		t.Fatal(err)
	}
	var r row
	if err := json.Unmarshal(raw, &r); err != nil {
		t.Fatal(err)
	}
	return r, true
}

func TestClosedRefusesSubmitAndDrain(t *testing.T) {
	p := newPipe(t, db.MustOpenMemory(), settleAll, nil)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Submit(rows("d", "a")); !errors.Is(err, errClosed) {
		t.Fatalf("submit after close = %v, want the workload's closed error", err)
	}
	if err := p.Drain(time.Second); !errors.Is(err, errClosed) {
		t.Fatalf("drain after close = %v, want the workload's closed error", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("second close = %v", err)
	}
}

func TestDrainTimesOutWithWorkers(t *testing.T) {
	fail := func(*spool.Batch[row]) error { return errTransient }
	p := newPipe(t, db.MustOpenMemory(), fail, func(c *spool.Config[row]) {
		c.Workers = 1
		c.RetryInterval = time.Millisecond
	})
	submit(t, p, rows("d", "a", "b"))
	err := p.Drain(30 * time.Millisecond)
	if !errors.Is(err, errTimeout) {
		t.Fatalf("drain = %v, want timeout", err)
	}
	if st := p.Status(); st.Pending != 2 {
		t.Fatalf("pending after timeout = %d, want 2", st.Pending)
	}
	for deadline := time.Now().Add(5 * time.Second); p.Status().LastError == ""; {
		if time.Now().After(deadline) {
			t.Fatal("worker fault not reported in LastError")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDrainStallsInSynchronousMode(t *testing.T) {
	idle := func(*spool.Batch[row]) error { return nil } // finishes nothing
	p := newPipe(t, db.MustOpenMemory(), idle, nil)
	submit(t, p, rows("d", "a"))
	if err := p.Drain(time.Second); !errors.Is(err, errStalled) {
		t.Fatalf("drain = %v, want stalled", err)
	}
	// The unfinished row went back on the queue rather than vanishing.
	if st := p.Status(); st.Pending != 1 || st.QueueDepth != 1 {
		t.Fatalf("status after stall = %+v, want the row queued", st)
	}
}

func TestDrainReturnsTransientFaultInSynchronousMode(t *testing.T) {
	fail := func(*spool.Batch[row]) error { return errTransient }
	p := newPipe(t, db.MustOpenMemory(), fail, nil)
	submit(t, p, rows("d", "a"))
	if err := p.Drain(time.Second); !errors.Is(err, errTransient) {
		t.Fatalf("drain = %v, want the settle fault", err)
	}
	if st := p.Status(); st.Pending != 1 {
		t.Fatalf("pending = %d, want the row requeued", st.Pending)
	}
}

func TestSpoolWriteFailureReleasesReservation(t *testing.T) {
	j := simtest.NewJournal()
	st, err := db.Open(j)
	if err != nil {
		t.Fatal(err)
	}
	p := newPipe(t, st, settleAll, func(c *spool.Config[row]) { c.MaxPending = 3 })
	j.Kill()
	if in, err := p.Submit(rows("d", "a", "b", "c")[:3]); err == nil || in != nil {
		t.Fatalf("submit on a dead spool = %+v, %v; want failure with nothing committed", in, err)
	}
	if st := p.Status(); st.Pending != 0 {
		t.Fatalf("pending after failed intake = %d, want 0", st.Pending)
	}
	j.Revive()
	// The full bound is available again.
	if in := submit(t, p, rows("d", "a", "b", "c")[:3]); in.Accepted != 3 {
		t.Fatalf("accepted = %d, want 3", in.Accepted)
	}
	if _, err := p.Submit(rows("d", "x")); !errors.Is(err, errOverload) {
		t.Fatalf("submit past the bound = %v, want overloaded", err)
	}
}

func TestTransientFaultRequeuesUntouchedSiblings(t *testing.T) {
	st := db.MustOpenMemory()
	settled := map[string]int{}
	faulty := true
	settle := func(b *spool.Batch[row]) error {
		for _, r := range b.Rows {
			if err := b.Cleanup([]row{r}, nil); err != nil {
				return err
			}
			settled[r.Key]++
			if faulty {
				faulty = false
				return errTransient // after finishing only the first row
			}
		}
		return nil
	}
	p := newPipe(t, st, settle, nil)
	submit(t, p, rows("d", "a", "b", "c"))
	n, err := p.SettleOnce()
	if !errors.Is(err, errTransient) || n != 1 {
		t.Fatalf("faulty pass = %d, %v; want 1 finished and the fault", n, err)
	}
	if s := p.Status(); s.Pending != 2 || s.QueueDepth != 2 || s.InFlight != 0 {
		t.Fatalf("status after fault = %+v, want the two untouched siblings queued", s)
	}
	if err := p.Drain(time.Second); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b", "c"} {
		if settled[k] != 1 {
			t.Fatalf("row %s settled %d times, want once", k, settled[k])
		}
		if _, ok := spooledRow(t, st, k); ok {
			t.Fatalf("row %s still spooled after settling", k)
		}
	}
}

func TestParkResubmitSettle(t *testing.T) {
	st := db.MustOpenMemory()
	refuse := true
	settle := func(b *spool.Batch[row]) error {
		if refuse {
			return b.Fail(b.Rows, fmt.Errorf("drawer broke: %w", errRefused))
		}
		return settleAll(b)
	}
	p := newPipe(t, st, settle, nil)
	submit(t, p, rows("d", "a"))
	if err := p.Drain(time.Second); err != nil {
		t.Fatal(err)
	}
	if s := p.Status(); s.Failed != 1 || s.Pending != 0 {
		t.Fatalf("status after refusal = %+v, want one parked row", s)
	}
	parked, ok := spooledRow(t, st, "a")
	if !ok || parked.State != spool.StateFailed || parked.Reason != "drawer broke: test: refused for good" {
		t.Fatalf("parked row = %+v (%v)", parked, ok)
	}
	// Draining alone does not retry a parked row.
	if err := p.Drain(time.Second); err != nil {
		t.Fatal(err)
	}
	refuse = false
	if in := submit(t, p, rows("d", "a")); in.Accepted != 1 || in.Duplicates != 0 {
		t.Fatalf("resubmit = %+v, want the parked row revived", in)
	}
	if s := p.Status(); s.Failed != 0 || s.Pending != 1 {
		t.Fatalf("status after revive = %+v", s)
	}
	if err := p.Drain(time.Second); err != nil {
		t.Fatal(err)
	}
	if _, ok := spooledRow(t, st, "a"); ok {
		t.Fatal("revived row still spooled after settling")
	}
	if s := p.Status(); s.Failed != 0 || s.Pending != 0 {
		t.Fatalf("final status = %+v", s)
	}
}

func TestStorageFailureIsNeverTerminal(t *testing.T) {
	st := db.MustOpenMemory()
	fault := fmt.Errorf("%w while %w", db.ErrStorageFailed, errRefused)
	fail := true
	settle := func(b *spool.Batch[row]) error {
		if fail {
			fail = false
			return b.Fail(b.Rows, fault)
		}
		return settleAll(b)
	}
	p := newPipe(t, st, settle, nil)
	submit(t, p, rows("d", "a"))
	if _, err := p.SettleOnce(); !errors.Is(err, db.ErrStorageFailed) {
		t.Fatalf("pass = %v, want the storage fault returned", err)
	}
	if s := p.Status(); s.Failed != 0 || s.Pending != 1 {
		t.Fatalf("status = %+v, want the row requeued, not parked", s)
	}
	if err := p.Drain(time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestIntakeDedupAndReviveHooks(t *testing.T) {
	st := db.MustOpenMemory()
	p := newPipe(t, st, func(b *spool.Batch[row]) error {
		return b.Fail(b.Rows, errRefused)
	}, func(c *spool.Config[row]) {
		c.Settled = func(r row) bool { return r.Key == "done-elsewhere" }
		c.Revive = func(parked, fresh row) row {
			fresh.Reason = "revived from: " + parked.Reason
			return fresh
		}
	})
	in := submit(t, p, rows("d", "a", "done-elsewhere"))
	if in.Accepted != 1 || in.Duplicates != 1 {
		t.Fatalf("intake = %+v, want 1 accepted and the settled key a duplicate", in)
	}
	if in := submit(t, p, rows("d", "a")); in.Accepted != 0 || in.Duplicates != 1 {
		t.Fatalf("pending resubmit = %+v, want a duplicate", in)
	}
	if err := p.Drain(time.Second); err != nil {
		t.Fatal(err)
	}
	submit(t, p, rows("d", "a"))
	if r, _ := spooledRow(t, st, "a"); r.State != spool.StatePending || r.Reason != "revived from: "+errRefused.Error() {
		t.Fatalf("revived row = %+v", r)
	}
	if s := p.Status(); s.Duplicates != 2 {
		t.Fatalf("duplicates = %d, want 2", s.Duplicates)
	}
}

func TestAbandonStopsColdAndRecoveryRequeues(t *testing.T) {
	st := db.MustOpenMemory()
	calls := 0
	abandon := func(*spool.Batch[row]) error {
		calls++
		return fmt.Errorf("%w: injected death", spool.ErrAbandoned)
	}
	p := newPipe(t, st, abandon, nil)
	submit(t, p, rows("d1", "a"))
	submit(t, p, rows("d2", "b"))
	if _, err := p.SettleOnce(); !errors.Is(err, spool.ErrAbandoned) {
		t.Fatalf("pass = %v, want abandon", err)
	}
	if calls != 1 {
		t.Fatalf("settle ran %d times, want the pass stopped after the first group", calls)
	}
	// Simulated death keeps nothing in memory for the abandoned group.
	if s := p.Status(); s.Pending != 1 {
		t.Fatalf("pending = %d, want only the untouched group", s.Pending)
	}
	p.Close()

	var recovered []string
	p2 := newPipe(t, st, settleAll, func(c *spool.Config[row]) {
		c.Recovered = func(r row) { recovered = append(recovered, r.Key) }
	})
	if len(recovered) != 2 || p2.Status().Pending != 2 {
		t.Fatalf("recovered %v (pending %d), want both rows", recovered, p2.Status().Pending)
	}
	if err := p2.Drain(time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestSettleLatencyObservedOncePerFinishedRow(t *testing.T) {
	reg := obs.NewRegistry()
	now := epoch
	settle := func(b *spool.Batch[row]) error {
		now = epoch.Add(3 * time.Millisecond)
		return b.Cleanup(b.Rows[:1], []row{b.Rows[1].Parked("refused")})
	}
	p := newPipe(t, db.MustOpenMemory(), settle, func(c *spool.Config[row]) {
		c.Obs = reg
		c.BatchMetric = "batch"
		c.Now = func() time.Time { return now }
	})
	submit(t, p, rows("d", "a", "b"))
	if err := p.Drain(time.Second); err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, h := range reg.Snapshot().Hists {
		if h.Name == "test.settle_latency" {
			found = true
			if h.Count != 1 || h.Sum != 3000 {
				t.Fatalf("settle_latency = %d obs, sum %dus; want one 3000us observation", h.Count, h.Sum)
			}
		}
	}
	if !found {
		t.Fatal("test.settle_latency not registered")
	}
}

// TestConcurrentSubmittersNeverOvershoot races submitters against the
// bound (run under -race): the pending count never exceeds MaxPending,
// and what was accepted is exactly what is pending.
func TestConcurrentSubmittersNeverOvershoot(t *testing.T) {
	const bound = 50
	p := newPipe(t, db.MustOpenMemory(), settleAll, func(c *spool.Config[row]) { c.MaxPending = bound })
	var accepted atomic.Int64
	var overshoot atomic.Int64
	stop := make(chan struct{})
	var watch sync.WaitGroup
	watch.Add(1)
	go func() {
		defer watch.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := p.Status().Pending; n > bound {
				overshoot.Store(int64(n))
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				k := fmt.Sprintf("g%d-%d", g, i)
				in, err := p.Submit(rows(accounts.ID(fmt.Sprint("d", g)), k+"a", k+"b", k+"c"))
				switch {
				case errors.Is(err, errOverload):
				case err != nil:
					t.Errorf("submit: %v", err)
					return
				default:
					accepted.Add(int64(in.Accepted))
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	watch.Wait()
	if n := overshoot.Load(); n != 0 {
		t.Fatalf("pending reached %d past the bound %d", n, bound)
	}
	s := p.Status()
	if int64(s.Pending) != accepted.Load() || s.Pending > bound {
		t.Fatalf("pending %d, accepted %d, bound %d", s.Pending, accepted.Load(), bound)
	}
	if err := p.Drain(time.Second); err != nil {
		t.Fatal(err)
	}
}
