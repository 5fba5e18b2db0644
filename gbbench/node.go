package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"gridbank/internal/core"
	"gridbank/internal/db"
	"gridbank/internal/micropay"
	"gridbank/internal/obs"
	"gridbank/internal/pki"
	"gridbank/internal/shard"
	"gridbank/internal/usage"
	"gridbank/internal/wire"
)

// The node under test mirrors cmd/gridbankd run() with its flag
// defaults, except -shards (2 here), -usage and -micropay (both on).
const (
	nodeShards      = 2
	nodeBranch      = "0001" // -branch
	nodeVO          = "VO-Bench"
	pipeWorkers     = 2    // -usage-workers, -micropay-workers
	pipeBatch       = 64   // -usage-batch, -micropay-batch
	pipeQueue       = 4096 // -usage-queue, -micropay-queue
	gspName         = "gsp"
	spoolUsage      = "usage"
	spoolMicropay   = "micropay"
	defaultWALCodec = wire.CodecBin1 // -wal-codec
)

// wireCodecs is the -wire-codec bin1 policy: the server accepts and
// every client offers bin1 first, JSON second.
var wireCodecs = []string{wire.CodecBin1, wire.CodecJSON}

// bootOptions are the gridbankd flags a boot may change: -sync, and
// -usage-workers/-micropay-workers. Set-up bulk loads run -sync=false;
// the restart workload's bulk load also parks the pipelines (workers -1)
// so spooled items stay pending.
type bootOptions struct {
	sync    bool
	workers int
}

// nodeUnderTest is the boot the measured node gets. Traced runs (both
// halves) and restart boot it as gridbankd does by default, -sync=true,
// so the per-layer journal and fsync figures and the recovery path carry
// the production durability cost. Untraced interactive and settlement
// runs boot it -sync=false: on the shared disks this benchmark runs on,
// fsync latency swings several-fold between runs (p99 0.4 ms to 8 ms),
// and with -sync=true the run-to-run spread of their gated latencies and
// rates was 50-150% (restart's stayed under 10%). Journals still write
// every commit; the report line carries a raw fsync probe.
func nodeUnderTest(workload string, traced bool) bootOptions {
	return bootOptions{sync: traced || workload == "restart", workers: pipeWorkers}
}

// bootTimes splits a boot into the phases the boot.* metrics report.
type bootTimes struct {
	open       time.Duration // journal open + checkpoint restore + replay
	checkpoint time.Duration // boot Checkpoint + Compact
	recover    time.Duration // shard.New + both pipelines' New
	replayed   uint64        // journal entries replayed past the checkpoints
	read       int64         // bytes read below the stores (traced boots)
	written    int64         // bytes written below the stores, mostly checkpoints (traced boots)
}

// node is one assembled GridBank server with its clients' credentials.
type node struct {
	dir    string
	trust  *pki.TrustStore
	bankID *pki.Identity
	banker *pki.Identity
	gsp    *pki.Identity

	stores   []*db.Store
	spools   []*db.Store
	ledger   *shard.Ledger
	reg      *obs.Registry
	bank     *core.Bank
	usage    *usage.Pipeline
	micropay *micropay.Pipeline
	srv      *core.Server
	addr     string

	boot bootTimes
	tr   *tracer // nil on untraced runs
}

// bootNode assembles the node over dir the way gridbankd run() does:
// CA and identities, shard count pin, per-shard journal + checkpoint
// restore + boot checkpoint, sharded ledger, registry, bank, both spooled
// pipelines, then the TLS server on a loopback port.
func bootNode(dir string, opt bootOptions, tr *tracer) (n *node, err error) {
	n = &node{dir: dir, tr: tr}
	var io0 fileAcc
	if tr != nil {
		io0 = tr.fileTotals()
	}
	defer func() {
		if err != nil {
			n.close()
			n = nil
			return
		}
		if tr != nil {
			io1 := tr.fileTotals()
			n.boot.read, n.boot.written = io1.read-io0.read, io1.written-io0.written
		}
	}()
	ca, err := loadOrCreateCA(dir)
	if err != nil {
		return n, err
	}
	if n.bankID, err = loadOrIssue(dir, ca, "bank", true); err != nil {
		return n, err
	}
	if n.banker, err = loadOrIssue(dir, ca, "banker", false); err != nil {
		return n, err
	}
	if n.gsp, err = loadOrIssue(dir, ca, gspName, false); err != nil {
		return n, err
	}
	n.trust = pki.NewTrustStore(ca.Certificate())
	if err := pinShardCount(dir, nodeShards); err != nil {
		return n, err
	}
	for i := 0; i < nodeShards; i++ {
		name := "ledger"
		if i > 0 {
			name = fmt.Sprintf("ledger-%d", i)
		}
		st, err := n.openStore(name, opt.sync, kindShard)
		if err != nil {
			return n, err
		}
		n.stores = append(n.stores, st)
	}
	start := time.Now()
	n.ledger, err = shard.New(n.stores, shard.Config{Branch: nodeBranch})
	if err != nil {
		return n, err
	}
	n.boot.recover += time.Since(start)
	n.reg = obs.NewRegistry()
	n.ledger.SetObs(n.reg)
	var led core.Ledger = n.ledger
	if tr != nil {
		led = tr.wrapLedger(n.ledger)
	}
	n.bank, err = core.NewBankWithLedger(led, core.BankConfig{
		Identity: n.bankID,
		Trust:    n.trust,
		Admins:   []string{n.banker.SubjectName()},
		Branch:   nodeBranch,
		DedupTTL: core.DefaultDedupTTL,
		Obs:      n.reg,
	})
	if err != nil {
		return n, err
	}
	warn := obs.NewLogger(os.Stderr, obs.LevelWarn)

	uspool, err := n.openStore(spoolUsage, opt.sync, kindUsage)
	if err != nil {
		return n, err
	}
	n.spools = append(n.spools, uspool)
	uspool.SetObs(n.reg)
	var uled usage.Ledger = usage.WrapSharded(n.ledger)
	if tr != nil {
		uled = tr.wrapCross(usage.WrapSharded(n.ledger))
	}
	start = time.Now()
	n.usage, err = usage.New(usage.Config{
		Ledger: uled, Spool: uspool,
		BatchSize: pipeBatch, Workers: opt.workers, MaxPending: pipeQueue,
		Log: warn, Obs: n.reg,
	})
	if err != nil {
		return n, err
	}
	n.boot.recover += time.Since(start)
	n.bank.SetUsage(n.usage)

	mspool, err := n.openStore(spoolMicropay, opt.sync, kindMicropay)
	if err != nil {
		return n, err
	}
	n.spools = append(n.spools, mspool)
	mspool.SetObs(n.reg)
	start = time.Now()
	n.micropay, err = micropay.New(micropay.Config{
		Redeemer:    n.bank.ChainRedeemer(),
		FindAccount: n.bank.Ledger().FindByCertificate,
		Spool:       mspool,
		BatchSize:   pipeBatch, Workers: opt.workers, MaxPending: pipeQueue,
		Log: warn, Obs: n.reg,
	})
	if err != nil {
		return n, err
	}
	n.boot.recover += time.Since(start)
	n.bank.SetMicropay(n.micropay)

	n.srv, err = core.NewServer(n.bank, n.bankID)
	if err != nil {
		return n, err
	}
	n.srv.MaxInFlight = core.DefaultMaxInFlight
	n.srv.IdleTimeout = core.DefaultIdleTimeout
	n.srv.WireCodecs = wireCodecs
	n.srv.Obs = n.reg
	n.srv.Logf = func(string, ...any) {}
	if tr != nil {
		n.srv.OnSpan = tr.onSpan
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return n, err
	}
	n.addr = ln.Addr().String()
	go func() { _ = n.srv.Serve(ln) }() // returns when close stops the server
	return n, nil
}

// openStore opens one journal + checkpoint pair (<name>.wal,
// <name>.ckpt) and takes the boot checkpoint, as gridbankd does for
// every shard and spool.
func (n *node) openStore(name string, sync bool, kind journalKind) (*db.Store, error) {
	walPath := filepath.Join(n.dir, name+".wal")
	ckptPath := filepath.Join(n.dir, name+".ckpt")
	fsys := db.OSFS()
	if n.tr != nil {
		fsys = n.tr.fs(kind)
	}
	start := time.Now()
	journal, err := db.OpenFileJournalCodecFS(fsys, walPath, sync, defaultWALCodec)
	if err != nil {
		return nil, err
	}
	if n.tr != nil {
		journal = n.tr.wrapJournal(journal, kind)
	}
	st, info, err := db.OpenWithCheckpointFS(fsys, ckptPath, journal)
	if err != nil {
		journal.Close()
		return nil, err
	}
	n.boot.open += time.Since(start)
	n.boot.replayed += st.CurrentSeq() - info.Seq
	start = time.Now()
	if _, err := st.CheckpointFS(fsys, ckptPath); err != nil {
		st.Close()
		return nil, fmt.Errorf("checkpoint %s: %w", name, err)
	}
	if cj, ok := journal.(db.CompactableJournal); ok {
		if err := cj.Compact(); err != nil {
			st.Close()
			return nil, fmt.Errorf("compacting %s journal: %w", name, err)
		}
	}
	n.boot.checkpoint += time.Since(start)
	return st, nil
}

// close stops the server, both pipelines and every store, in that
// order. Safe on a partially assembled node.
func (n *node) close() {
	if n.srv != nil {
		n.srv.Close()
	}
	if n.micropay != nil {
		n.micropay.Close()
	}
	if n.usage != nil {
		n.usage.Close()
	}
	for _, st := range append(n.stores, n.spools...) {
		st.Close()
	}
}

// dial opens a client that offers the node's codecs, authenticating as
// id.
func (n *node) dial(id *pki.Identity) (*core.Client, error) {
	c, err := core.Dial(n.addr, id, n.trust)
	if err != nil {
		return nil, err
	}
	c.OfferCodecs = wireCodecs
	return c, nil
}

// loadOrCreateCA reuses dir's CA or bootstraps one, as gridbankd does.
func loadOrCreateCA(dir string) (*pki.CA, error) {
	caID, err := pki.LoadIdentity(dir, "ca")
	if err == nil {
		return pki.ResumeCA(caID)
	}
	if !os.IsNotExist(err) {
		return nil, err
	}
	ca, err := pki.NewCA(nodeVO+" CA", nodeVO, 10*365*24*time.Hour)
	if err != nil {
		return nil, err
	}
	if err := pki.SaveIdentity(dir, "ca", ca.Identity()); err != nil {
		return nil, err
	}
	return ca, pki.SaveCACert(filepath.Join(dir, "ca.pem"), ca.Certificate())
}

func loadOrIssue(dir string, ca *pki.CA, name string, server bool) (*pki.Identity, error) {
	id, err := pki.LoadIdentity(dir, name)
	if err == nil {
		return id, nil
	}
	if !os.IsNotExist(err) {
		return nil, err
	}
	id, err = ca.Issue(pki.IssueOptions{CommonName: name, Organization: nodeVO, IsServer: server})
	if err != nil {
		return nil, err
	}
	return id, pki.SaveIdentity(dir, name, id)
}

// pinShardCount records the shard count on first boot and refuses a
// mismatch later, as gridbankd does.
func pinShardCount(dir string, shards int) error {
	path := filepath.Join(dir, "shards")
	raw, err := os.ReadFile(path)
	if err == nil {
		if pinned, _ := strconv.Atoi(strings.TrimSpace(string(raw))); pinned != shards {
			return fmt.Errorf("data directory %s holds %q shards, want %d", dir, raw, shards)
		}
		return nil
	}
	if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return os.WriteFile(path, []byte(strconv.Itoa(shards)+"\n"), 0o600)
}

// copyDir copies every regular file of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o700); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.OpenFile(dst, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o600)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
