// Package node assembles one GridBank server from its data directory:
// the ledger database (one store per shard), the bank that serves it,
// and the two spooled settlement pipelines. gridbankd and the
// storage-fault harness both boot through Open.
//
// The package owns the data-directory layout:
//
//	shards               shard-count marker ("N\n"), written durably on first boot
//	ledger.wal/.ckpt     shard 0 journal and checkpoint (the pre-sharding names)
//	ledger-N.wal/.ckpt   shard N, N >= 1
//	usage.wal/.ckpt      usage settlement spool (-usage)
//	micropay.wal/.ckpt   micropay redemption spool (-micropay)
//
// and the boot order: pin the shard count, open every store (journal
// replay over its newest intact checkpoint), run the checkpoint pass
// while nothing else touches the stores, then shard.New (2PC recovery),
// the bank, and the pipelines (spool recovery).
package node

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"gridbank/internal/core"
	"gridbank/internal/db"
	"gridbank/internal/micropay"
	"gridbank/internal/obs"
	"gridbank/internal/pki"
	"gridbank/internal/shard"
	"gridbank/internal/usage"
)

// Spec describes a node. Every field but FS and Now is a gridbankd flag
// value or an identity gridbankd loads from the VO's CA.
type Spec struct {
	Dir        string        // -data
	Shards     int           // -shards
	Branch     string        // -branch
	Sync       bool          // -sync
	Checkpoint bool          // -checkpoint: run the checkpoint pass at boot
	WALCodec   string        // -wal-codec
	DedupTTL   time.Duration // -dedup-ttl
	Usage      Pipeline      // -usage, -usage-workers, -usage-batch, -usage-queue
	Micropay   Pipeline      // -micropay, -micropay-workers, -micropay-batch, -micropay-queue

	Identity *pki.Identity   // the bank's signing identity
	Trust    *pki.TrustStore // the VO's trust anchor
	Admins   []string        // administrator subjects

	FS  db.FS            // every node file goes through it; nil is the real filesystem
	Now func() time.Time // clock of the ledger, bank and pipelines; nil is time.Now
}

// Pipeline is one settlement pipeline's flag group.
type Pipeline struct {
	Enabled               bool
	Workers, Batch, Queue int
}

// Node is an assembled server.
type Node struct {
	Ledger   *shard.Ledger
	Bank     *core.Bank
	Usage    *usage.Pipeline    // nil unless Spec.Usage.Enabled
	Micropay *micropay.Pipeline // nil unless Spec.Micropay.Enabled
	Obs      *obs.Registry      // every store, the bank and both pipelines record here

	fs     db.FS
	now    func() time.Time
	stores []*store // shards in index order, then the spools
	// Checkpoint provenance for the gauges: the highest generation any
	// store runs on (-1: none has a checkpoint; above 0: a boot fell
	// back) and the unix time of the oldest checkpoint in use (0: none).
	gen, oldest atomic.Int64
}

// store is one journal + checkpoint pair.
type store struct {
	name    string // "shard 0", "usage spool": log and error label
	note    string // tail of the checkpoint log line
	ckpt    string
	journal db.Journal
	db      *db.Store
}

// ShardFiles returns the journal and checkpoint paths of ledger shard i
// under dir. Shard 0 keeps the unsuffixed pre-sharding names, so a
// one-shard node opens pre-sharding data directories byte for byte.
func ShardFiles(dir string, i int) (wal, ckpt string) {
	base := "ledger"
	if i > 0 {
		base = fmt.Sprintf("ledger-%d", i)
	}
	return filepath.Join(dir, base+".wal"), filepath.Join(dir, base+".ckpt")
}

// Open boots the node spec describes. On error everything opened so
// far is closed again.
func Open(spec Spec) (_ *Node, err error) {
	if spec.Shards < 1 {
		return nil, fmt.Errorf("-shards %d: need at least 1", spec.Shards)
	}
	n := &Node{fs: spec.FS, now: spec.Now, Obs: obs.NewRegistry()}
	if n.fs == nil {
		n.fs = db.OSFS()
		if err := os.MkdirAll(spec.Dir, 0o700); err != nil {
			return nil, err
		}
	}
	if n.now == nil {
		n.now = time.Now
	}
	n.gen.Store(-1)
	defer func() {
		if err != nil {
			n.Close()
		}
	}()
	if err := pinShardCount(n.fs, spec.Dir, spec.Shards); err != nil {
		return nil, err
	}
	shards := make([]*db.Store, spec.Shards)
	for i := range shards {
		wal, ckpt := ShardFiles(spec.Dir, i)
		if shards[i], err = n.openStore(spec, fmt.Sprintf("shard %d", i), ", journal compacted", wal, ckpt); err != nil {
			return nil, err
		}
	}
	openSpool := func(p Pipeline, name string) (*db.Store, error) {
		if !p.Enabled {
			return nil, nil
		}
		base := filepath.Join(spec.Dir, name)
		return n.openStore(spec, name+" spool", "", base+".wal", base+".ckpt")
	}
	uspool, err := openSpool(spec.Usage, "usage")
	if err != nil {
		return nil, err
	}
	mspool, err := openSpool(spec.Micropay, "micropay")
	if err != nil {
		return nil, err
	}
	if spec.Checkpoint {
		if err := n.Checkpoint(); err != nil {
			return nil, err
		}
	}
	n.Obs.GaugeFunc("db.checkpoint_generation", func(time.Time) int64 { return n.gen.Load() })
	n.Obs.GaugeFunc("db.checkpoint_age_seconds", func(now time.Time) int64 {
		if oldest := n.oldest.Load(); oldest != 0 {
			return max(0, now.Unix()-oldest)
		}
		return -1
	})

	if n.Ledger, err = shard.New(shards, shard.Config{Branch: spec.Branch, Now: spec.Now}); err != nil {
		return nil, err
	}
	n.Ledger.SetObs(n.Obs)
	if n.Bank, err = core.NewBankWithLedger(n.Ledger, core.BankConfig{
		Identity: spec.Identity, Trust: spec.Trust, Admins: spec.Admins,
		Now: spec.Now, Branch: spec.Branch, DedupTTL: spec.DedupTTL, Obs: n.Obs,
	}); err != nil {
		return nil, err
	}
	if spec.Shards > 1 {
		log.Printf("gridbankd: ledger partitioned over %d shards (consistent hash, %d vnodes/shard)", spec.Shards, n.Ledger.Ring().Vnodes())
	}
	// Spool recovery (and usage's reseed above recovered transaction-ID
	// pins) runs here, ahead of any traffic.
	warn := obs.NewLogger(os.Stderr, obs.LevelWarn)
	if uspool != nil {
		uspool.SetObs(n.Obs)
		if n.Usage, err = usage.New(usage.Config{
			Ledger: usage.WrapSharded(n.Ledger), Spool: uspool,
			BatchSize: spec.Usage.Batch, Workers: spec.Usage.Workers, MaxPending: spec.Usage.Queue,
			Log: warn, Obs: n.Obs, Now: spec.Now,
		}); err != nil {
			return nil, err
		}
		n.Bank.SetUsage(n.Usage)
		log.Printf("gridbankd: usage settlement pipeline enabled (%d workers, batch %d, queue bound %d, %d pending recovered)",
			spec.Usage.Workers, spec.Usage.Batch, spec.Usage.Queue, n.Usage.Status().Pending)
	}
	if mspool != nil {
		// Over the bank's chain redeemer, so streamed claims and
		// synchronous RedeemChain calls serialize per serial.
		mspool.SetObs(n.Obs)
		if n.Micropay, err = micropay.New(micropay.Config{
			Redeemer: n.Bank.ChainRedeemer(), FindAccount: n.Ledger.FindByCertificate, Spool: mspool,
			BatchSize: spec.Micropay.Batch, Workers: spec.Micropay.Workers, MaxPending: spec.Micropay.Queue,
			Log: warn, Obs: n.Obs, Now: spec.Now,
		}); err != nil {
			return nil, err
		}
		n.Bank.SetMicropay(n.Micropay)
		log.Printf("gridbankd: micropay streaming pipeline enabled (%d workers, batch %d, queue bound %d, %d pending recovered)",
			spec.Micropay.Workers, spec.Micropay.Batch, spec.Micropay.Queue, n.Micropay.Status().Pending)
	}
	return n, nil
}

// openStore opens one journal and restores its store from the newest
// intact checkpoint, logging where the state came from.
func (n *Node) openStore(spec Spec, name, note, wal, ckpt string) (*db.Store, error) {
	journal, err := db.OpenFileJournalCodecFS(n.fs, wal, spec.Sync, spec.WALCodec)
	if err != nil {
		return nil, err
	}
	st, info, err := db.OpenWithCheckpointFS(n.fs, ckpt, journal)
	if err != nil {
		journal.Close()
		return nil, err
	}
	for _, fb := range info.Fallbacks {
		log.Printf("gridbankd: WARNING %s checkpoint fallback: %s", name, fb)
	}
	if info.Generation < 0 {
		log.Printf("gridbankd: %s restored by journal replay (no checkpoint)", name)
	} else {
		log.Printf("gridbankd: %s restored from checkpoint generation %d (%s format, seq %d, %s)",
			name, info.Generation, info.Format, info.Seq, info.Path)
	}
	n.stores = append(n.stores, &store{name: name, note: note, ckpt: ckpt, journal: journal, db: st})
	n.gen.Store(max(n.gen.Load(), int64(info.Generation)))
	if info.Generation >= 0 && !info.ModTime.IsZero() {
		if t, o := info.ModTime.Unix(), n.oldest.Load(); o == 0 || t < o {
			n.oldest.Store(t)
		}
	}
	return st, nil
}

// Checkpoint checkpoints every store, then compacts its journal, so the
// next boot replays only what is written after this pass. Compact
// truncates the whole journal: call it only while nothing commits, as
// Open does before the ledger and pipelines start. The first error
// stops the pass and leaves the provenance gauges as they were.
func (n *Node) Checkpoint() error {
	for _, s := range n.stores {
		seq, err := s.db.CheckpointFS(n.fs, s.ckpt)
		if err != nil {
			return fmt.Errorf("checkpoint %s: %w", s.name, err)
		}
		if cj, ok := s.journal.(db.CompactableJournal); ok {
			if err := cj.Compact(); err != nil {
				return fmt.Errorf("compacting %s journal after checkpoint: %w", s.name, err)
			}
		}
		log.Printf("gridbankd: checkpointed %s at seq %d (%s)%s", s.name, seq, s.ckpt, s.note)
	}
	n.gen.Store(0)
	n.oldest.Store(n.now().Unix())
	return nil
}

// Close stops both pipelines, then closes every store. Safe on a
// partially assembled node.
func (n *Node) Close() error {
	var errs []error
	if n.Micropay != nil {
		errs = append(errs, n.Micropay.Close())
	}
	if n.Usage != nil {
		errs = append(errs, n.Usage.Close())
	}
	for _, s := range n.stores {
		errs = append(errs, s.db.Close())
	}
	return errors.Join(errs...)
}

// pinShardCount records the shard count in <dir>/shards on first boot
// and refuses later boots whose count disagrees: opening a subset of
// the shard journals would silently hide accounts and break the
// cross-shard duplicate-identity check. Pre-sharding data directories
// (journal exists, no marker) are grandfathered as 1 shard. The marker
// is durable before any journal exists, so a crash right after first
// boot cannot leave journals without it.
func pinShardCount(fsys db.FS, dir string, shards int) error {
	path := filepath.Join(dir, "shards")
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err == nil {
		raw, err := io.ReadAll(f)
		f.Close()
		if err != nil {
			return err
		}
		pinned, perr := strconv.Atoi(strings.TrimSpace(string(raw)))
		if perr != nil {
			return fmt.Errorf("corrupt shard-count marker %s: %q", path, raw)
		}
		if pinned != shards {
			return fmt.Errorf("data directory %s was created with -shards %d; refusing to open with -shards %d (resharding requires migration)", dir, pinned, shards)
		}
		return nil
	}
	if !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	wal, _ := ShardFiles(dir, 0)
	if _, err := fsys.Stat(wal); err == nil && shards != 1 {
		return fmt.Errorf("data directory %s predates sharding (no shard-count marker); it holds 1 shard, got -shards %d", dir, shards)
	}
	// Temp file, fsync, rename, fsync of the directory.
	tmp := path + ".tmp"
	if f, err = fsys.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o600); err != nil {
		return err
	}
	_, err = f.Write([]byte(strconv.Itoa(shards) + "\n"))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err != nil {
		return fmt.Errorf("writing shard-count marker %s: %w", path, err)
	}
	return fsys.SyncDir(dir)
}
