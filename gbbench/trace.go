package main

import (
	"os"
	"sync"
	"time"

	"gridbank/internal/accounts"
	"gridbank/internal/core"
	"gridbank/internal/currency"
	"gridbank/internal/db"
	"gridbank/internal/shard"
	"gridbank/internal/usage"
)

// The traced run assembles the node with timing wrappers at its public
// seams: a core.Ledger around the sharded ledger, a usage.CrossShardLedger
// around the pipeline's ledger, a db.Journal around every shard and spool
// journal, a db.FS under every journal and checkpoint, and
// core.Server.OnSpan. Work inside one request is tied together by the
// goroutine that runs it: the server runs the handler, every ledger call
// and journal wait it makes, and OnSpan on one goroutine.

// journalKind separates ledger shard files from each pipeline's spool
// files.
type journalKind int

const (
	kindShard journalKind = iota
	kindUsage
	kindMicropay
	numKinds
)

// durAcc accumulates a count and a total duration.
type durAcc struct {
	n     int64
	total time.Duration
}

func (a *durAcc) add(d time.Duration) { a.n++; a.total += d }

// meanUS is the mean in microseconds, 0 when nothing was recorded.
func (a durAcc) meanUS() float64 {
	if a.n == 0 {
		return 0
	}
	return float64(a.total.Microseconds()) / float64(a.n)
}

// opAcc decomposes every server request of one op.
type opAcc struct {
	n                                     int64
	queue, handler, ledger, jIn, jOutside time.Duration
}

// fileAcc counts one kind of file traffic below the storage layer.
type fileAcc struct {
	written, read int64
	sync          durAcc
}

// gstate is the per-goroutine record of one request's ledger time and
// journal waits, inside and outside ledger calls.
type gstate struct {
	inLedger              int
	ledger, jIn, jOutside time.Duration
}

// tracer owns every traced run's accumulators.
type tracer struct {
	gs sync.Map // gid() -> *gstate

	mu      sync.Mutex
	ops     map[string]*opAcc
	calls   map[string]*durAcc
	commits [numKinds]durAcc
	files   [numKinds]fileAcc
}

func newTracer() *tracer {
	t := &tracer{}
	t.reset()
	return t
}

// reset drops everything recorded so far; the workload calls it when
// its measured phase starts.
func (t *tracer) reset() {
	t.mu.Lock()
	t.ops = make(map[string]*opAcc)
	t.calls = make(map[string]*durAcc)
	t.commits = [numKinds]durAcc{}
	t.files = [numKinds]fileAcc{}
	t.mu.Unlock()
}

func (t *tracer) g() *gstate {
	id := gid()
	if v, ok := t.gs.Load(id); ok {
		return v.(*gstate)
	}
	st := &gstate{}
	t.gs.Store(id, st)
	return st
}

// onSpan is core.Server.OnSpan: it closes the request's goroutine
// record and files it under the op.
func (t *tracer) onSpan(sp core.Span) {
	var st gstate
	if v, ok := t.gs.LoadAndDelete(gid()); ok {
		st = *v.(*gstate)
	}
	t.mu.Lock()
	a := t.ops[sp.Op]
	if a == nil {
		a = &opAcc{}
		t.ops[sp.Op] = a
	}
	a.n++
	a.queue += sp.QueueWait
	a.handler += sp.Handler
	a.ledger += st.ledger
	a.jIn += st.jIn
	a.jOutside += st.jOutside
	t.mu.Unlock()
}

// call times one wrapped ledger call; the returned func ends it.
func (t *tracer) call(name string) func() {
	st := t.g()
	st.inLedger++
	start := time.Now()
	return func() {
		d := time.Since(start)
		st.inLedger--
		if st.inLedger == 0 {
			st.ledger += d
		}
		t.mu.Lock()
		a := t.calls[name]
		if a == nil {
			a = &durAcc{}
			t.calls[name] = a
		}
		a.add(d)
		t.mu.Unlock()
	}
}

// --- core.Ledger --------------------------------------------------------

// tracedLedger times the calls the bank makes on its hot paths. The
// embedded *shard.Ledger forwards everything else, including the
// MetaManager and usage.CrossShardLedger methods the bank and its chain
// redeemer probe for.
type tracedLedger struct {
	*shard.Ledger
	t *tracer
}

func (t *tracer) wrapLedger(l *shard.Ledger) core.Ledger { return tracedLedger{Ledger: l, t: t} }

func (l tracedLedger) Details(id accounts.ID) (*accounts.Account, error) {
	defer l.t.call("Details")()
	return l.Ledger.Details(id)
}

func (l tracedLedger) FindByCertificate(cert string, cur currency.Code) (*accounts.Account, error) {
	defer l.t.call("FindByCertificate")()
	return l.Ledger.FindByCertificate(cert, cur)
}

func (l tracedLedger) CheckFunds(id accounts.ID, amount currency.Amount) error {
	defer l.t.call("CheckFunds")()
	return l.Ledger.CheckFunds(id, amount)
}

func (l tracedLedger) Unlock(id accounts.ID, amount currency.Amount) error {
	defer l.t.call("Unlock")()
	return l.Ledger.Unlock(id, amount)
}

func (l tracedLedger) Transfer(from, to accounts.ID, amount currency.Amount, opts accounts.TransferOptions) (*accounts.Transfer, error) {
	name := "Transfer.local"
	if l.ShardFor(from) != l.ShardFor(to) {
		name = "Transfer.cross"
	}
	defer l.t.call(name)()
	return l.Ledger.Transfer(from, to, amount, opts)
}

func (l tracedLedger) TransferWithID(txID uint64, from, to accounts.ID, amount currency.Amount, opts accounts.TransferOptions) (*accounts.Transfer, error) {
	defer l.t.call("TransferWithID")()
	return l.Ledger.TransferWithID(txID, from, to, amount, opts)
}

// --- usage.CrossShardLedger ----------------------------------------------

// tracedCross times the usage pipeline's pinned cross-shard transfers;
// the embedded interface forwards the rest of usage.CrossShardLedger.
type tracedCross struct {
	usage.CrossShardLedger
	t *tracer
}

func (t *tracer) wrapCross(l usage.CrossShardLedger) usage.CrossShardLedger {
	return tracedCross{CrossShardLedger: l, t: t}
}

func (l tracedCross) TransferWithID(txID uint64, from, to accounts.ID, amount currency.Amount, opts accounts.TransferOptions) (*accounts.Transfer, error) {
	defer l.t.call("pinned")()
	return l.CrossShardLedger.TransferWithID(txID, from, to, amount, opts)
}

// --- db.Journal ----------------------------------------------------------

// tracedJournal times each commit from Stage to the return of its wait,
// forwarding db.GroupJournal and db.CompactableJournal. It hides the
// file journal's obs hook, so the traced run takes flush and fsync
// numbers from tracedFS instead.
type tracedJournal struct {
	inner db.Journal
	t     *tracer
	kind  journalKind
}

func (t *tracer) wrapJournal(j db.Journal, kind journalKind) db.Journal {
	return &tracedJournal{inner: j, t: t, kind: kind}
}

func (j *tracedJournal) Append(e db.Entry) error { return j.AppendBatch([]db.Entry{e}) }

func (j *tracedJournal) AppendBatch(entries []db.Entry) error {
	wait, err := j.Stage(entries)
	if err != nil {
		return err
	}
	return wait()
}

func (j *tracedJournal) Replay(apply func(db.Entry) error) error { return j.inner.Replay(apply) }

func (j *tracedJournal) Close() error { return j.inner.Close() }

func (j *tracedJournal) Compact() error { return j.inner.(db.CompactableJournal).Compact() }

// Stage forwards to the inner journal's Stage. The store calls it with
// stripe locks held, so the goroutine lookup waits for the wait call.
func (j *tracedJournal) Stage(entries []db.Entry) (func() error, error) {
	start := time.Now()
	gj, ok := j.inner.(db.GroupJournal)
	if !ok {
		err := j.inner.AppendBatch(entries)
		j.noteCommit(time.Since(start))
		return func() error { return err }, nil
	}
	wait, err := gj.Stage(entries)
	if err != nil {
		return nil, err
	}
	return func() error {
		err := wait()
		j.noteCommit(time.Since(start))
		return err
	}, nil
}

func (j *tracedJournal) noteCommit(d time.Duration) {
	st := j.t.g()
	if st.inLedger > 0 {
		st.jIn += d
	} else {
		st.jOutside += d
	}
	j.t.mu.Lock()
	j.t.commits[j.kind].add(d)
	j.t.mu.Unlock()
}

// --- db.FS ---------------------------------------------------------------

// tracedFS counts bytes written and read and times every fsync of the
// files below one kind of store.
type tracedFS struct {
	db.FS
	t    *tracer
	kind journalKind
}

func (t *tracer) fs(kind journalKind) db.FS { return tracedFS{FS: db.OSFS(), t: t, kind: kind} }

func (f tracedFS) OpenFile(name string, flag int, perm os.FileMode) (db.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: file, t: f.t, kind: f.kind}, nil
}

type tracedFile struct {
	db.File
	t    *tracer
	kind journalKind
}

func (f *tracedFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.t.mu.Lock()
	f.t.files[f.kind].written += int64(n)
	f.t.mu.Unlock()
	return n, err
}

func (f *tracedFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	f.noteRead(n)
	return n, err
}

func (f *tracedFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.noteRead(n)
	return n, err
}

func (f *tracedFile) noteRead(n int) {
	f.t.mu.Lock()
	f.t.files[f.kind].read += int64(n)
	f.t.mu.Unlock()
}

func (f *tracedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.t.mu.Lock()
	f.t.files[f.kind].sync.add(time.Since(start))
	f.t.mu.Unlock()
	return err
}

// fileTotals sums file traffic over every kind of store.
func (t *tracer) fileTotals() fileAcc {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum fileAcc
	for _, f := range t.files {
		sum.read += f.read
		sum.written += f.written
	}
	return sum
}

// traceSnap is a copy of the tracer's accumulators at the end of a
// measured window.
type traceSnap struct {
	ops     map[string]opAcc
	calls   map[string]durAcc
	commits [numKinds]durAcc
	files   [numKinds]fileAcc
}

func (t *tracer) snap() *traceSnap {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &traceSnap{ops: make(map[string]opAcc), calls: make(map[string]durAcc), commits: t.commits, files: t.files}
	for k, v := range t.ops {
		s.ops[k] = *v
	}
	for k, v := range t.calls {
		s.calls[k] = *v
	}
	return s
}
