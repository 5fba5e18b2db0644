package node

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"gridbank/internal/db"
	"gridbank/internal/diskfault"
	"gridbank/internal/pki"
	"gridbank/internal/wire"
)

func TestPinShardCountRefusesMismatch(t *testing.T) {
	dir, fsys := t.TempDir(), db.OSFS()
	if err := pinShardCount(fsys, dir, 4); err != nil {
		t.Fatal(err)
	}
	if err := pinShardCount(fsys, dir, 4); err != nil {
		t.Fatalf("matching re-pin = %v", err)
	}
	if err := pinShardCount(fsys, dir, 1); err == nil {
		t.Fatal("mismatched shard count accepted")
	}
	// A pre-sharding data dir (journal, no marker) is 1 shard only.
	legacy := t.TempDir()
	if err := os.WriteFile(filepath.Join(legacy, "ledger.wal"), []byte("[]\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := pinShardCount(fsys, legacy, 4); err == nil {
		t.Fatal("pre-sharding dir accepted -shards 4")
	}
	if err := pinShardCount(fsys, legacy, 1); err != nil {
		t.Fatalf("pre-sharding dir refused -shards 1: %v", err)
	}
}

// TestCheckpointProvenanceGauges reads db.checkpoint_generation and
// db.checkpoint_age_seconds after a sequence of boots over one disk.
func TestCheckpointProvenanceGauges(t *testing.T) {
	ca, err := pki.NewCA("VO-T CA", "VO-T", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	bankID, err := ca.Issue(pki.IssueOptions{CommonName: "bank", Organization: "VO-T", IsServer: true})
	if err != nil {
		t.Fatal(err)
	}
	bootAt := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	scrapeAt := bootAt.Add(90 * time.Second)
	cases := []struct {
		name             string
		passes           []bool // -checkpoint of each boot; gauges read after the last
		wantGen, wantAge int64
		fromFile         bool // wantAge is scrapeAt minus shard 0's checkpoint mtime
	}{
		{"fresh dir with the checkpoint pass", []bool{true}, 0, 90, false},
		{"reboot without the pass after a checkpointed boot", []bool{true, false}, 0, 0, true},
		{"journal-only dir", []bool{false}, -1, -1, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := diskfault.New(diskfault.Config{Seed: 1})
			pipe := Pipeline{Enabled: true, Workers: -1}
			var n *Node
			for i, pass := range tc.passes {
				n, err = Open(Spec{
					Dir: "/data", FS: d, Now: func() time.Time { return bootAt },
					Shards: 2, Sync: true, Checkpoint: pass, WALCodec: wire.CodecBin1, Usage: pipe, Micropay: pipe,
					Identity: bankID, Trust: pki.NewTrustStore(ca.Certificate()),
				})
				if err != nil {
					t.Fatal(err)
				}
				if i < len(tc.passes)-1 {
					n.Close()
				}
			}
			defer n.Close()
			if tc.fromFile {
				_, ckpt := ShardFiles("/data", 0)
				fi, err := d.Stat(ckpt)
				if err != nil {
					t.Fatal(err)
				}
				tc.wantAge = scrapeAt.Unix() - fi.ModTime().Unix()
			}
			gauges := map[string]int64{}
			for _, g := range n.Obs.SnapshotAt(scrapeAt).Gauges {
				gauges[g.Name] = g.Value
			}
			if got := gauges["db.checkpoint_generation"]; got != tc.wantGen {
				t.Errorf("db.checkpoint_generation = %d; want %d", got, tc.wantGen)
			}
			if got := gauges["db.checkpoint_age_seconds"]; got != tc.wantAge {
				t.Errorf("db.checkpoint_age_seconds = %d; want %d", got, tc.wantAge)
			}
		})
	}
}
