package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gridbank/internal/db"
)

// buildStore writes a small store with a journal and one checkpoint
// into dir under the given name, then closes everything cleanly.
func buildStore(t *testing.T, dir, name string) {
	t.Helper()
	j, err := db.OpenFileJournal(filepath.Join(dir, name+".wal"), true)
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	s, err := db.OpenWithCheckpoint(filepath.Join(dir, name+".ckpt"), j)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	if err := s.CreateTable("kv"); err != nil {
		t.Fatalf("create table: %v", err)
	}
	put := func(k, v string) {
		if err := s.Update(func(tx *db.Tx) error { return tx.Put("kv", k, []byte(v)) }); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	put("a", "1")
	put("b", "2")
	if _, err := s.Checkpoint(filepath.Join(dir, name+".ckpt")); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	put("c", "3") // post-checkpoint tail in the journal
	s.Close()
}

func TestFsckHealthyDataDir(t *testing.T) {
	dir := t.TempDir()
	buildStore(t, dir, "ledger-0")
	buildStore(t, dir, "usage")

	var out strings.Builder
	healthy, err := runFsck(&out, dir)
	if err != nil {
		t.Fatalf("runFsck: %v", err)
	}
	got := out.String()
	if !healthy {
		t.Fatalf("healthy dir reported unhealthy:\n%s", got)
	}
	for _, want := range []string{
		"store ledger-0:",
		"store usage:",
		"boot: checkpoint",
		"2 store(s), all bootable",
		"checkpoint ledger-0.ckpt: OK seq 3 (bin1 format, crc verified",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "CORRUPT") {
		t.Errorf("healthy dir reported corruption:\n%s", got)
	}
}

func TestFsckReportsCorruptCheckpointAndFallback(t *testing.T) {
	dir := t.TempDir()
	buildStore(t, dir, "ledger-0")
	// Second checkpoint rotates the first to .ckpt.1; then corrupt the
	// newest generation mid-body.
	j, err := db.OpenFileJournal(filepath.Join(dir, "ledger-0.wal"), true)
	if err != nil {
		t.Fatal(err)
	}
	s, err := db.OpenWithCheckpoint(filepath.Join(dir, "ledger-0.ckpt"), j)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Update(func(tx *db.Tx) error { return tx.Put("kv", "d", []byte("4")) }); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(filepath.Join(dir, "ledger-0.ckpt")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	ckpt := filepath.Join(dir, "ledger-0.ckpt")
	b, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xFF
	if err := os.WriteFile(ckpt, b, 0o600); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	healthy, err := runFsck(&out, dir)
	if err != nil {
		t.Fatalf("runFsck: %v", err)
	}
	got := out.String()
	if !healthy {
		t.Fatalf("store with intact .ckpt.1 should stay bootable:\n%s", got)
	}
	if !strings.Contains(got, "checkpoint ledger-0.ckpt: CORRUPT") {
		t.Errorf("corrupt newest generation not reported:\n%s", got)
	}
	if !strings.Contains(got, "boot: checkpoint "+filepath.Join(dir, "ledger-0.ckpt.1")) {
		t.Errorf("fallback generation not chosen:\n%s", got)
	}
}

func TestFsckUnhealthyWhenNoIntactHistory(t *testing.T) {
	dir := t.TempDir()
	buildStore(t, dir, "ledger-0")
	// Compact so the journal no longer holds full history, then corrupt
	// the only checkpoint generation.
	j, err := db.OpenFileJournal(filepath.Join(dir, "ledger-0.wal"), true)
	if err != nil {
		t.Fatal(err)
	}
	s, err := db.OpenWithCheckpoint(filepath.Join(dir, "ledger-0.ckpt"), j)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(filepath.Join(dir, "ledger-0.ckpt")); err != nil {
		t.Fatal(err)
	}
	if err := j.(db.CompactableJournal).Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Update(func(tx *db.Tx) error { return tx.Put("kv", "e", []byte("5")) }); err != nil {
		t.Fatal(err)
	}
	s.Close()
	for _, name := range []string{"ledger-0.ckpt", "ledger-0.ckpt.1"} {
		p := filepath.Join(dir, name)
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)/2] ^= 0xFF
		if err := os.WriteFile(p, b, 0o600); err != nil {
			t.Fatal(err)
		}
	}

	var out strings.Builder
	healthy, err := runFsck(&out, dir)
	if err != nil {
		t.Fatalf("runFsck: %v", err)
	}
	got := out.String()
	if healthy {
		t.Fatalf("no intact history but fsck reported healthy:\n%s", got)
	}
	if !strings.Contains(got, "REFUSED") || !strings.Contains(got, "UNHEALTHY") {
		t.Errorf("missing refusal verdicts:\n%s", got)
	}
}

func TestFsckReportsStaleTmp(t *testing.T) {
	dir := t.TempDir()
	buildStore(t, dir, "ledger-0")
	if err := os.WriteFile(filepath.Join(dir, "ledger-0.ckpt.tmp"), []byte("partial"), 0o600); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if _, err := runFsck(&out, dir); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "stale temp file ledger-0.ckpt.tmp") {
		t.Errorf("stale tmp not reported:\n%s", out.String())
	}
}

// TestFsckReportsGen1Format: a data dir carried over from a build that
// wrote gen1 (JSON body) checkpoints reports that generation as json,
// and the gen2 checkpoint written over it as bin1.
func TestFsckReportsGen1Format(t *testing.T) {
	dir := t.TempDir()
	gen1, err := os.ReadFile(filepath.Join("..", "..", "internal", "db", "testdata", "gen1.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(dir, "ledger-0.ckpt")
	if err := os.WriteFile(ckpt, gen1, 0o600); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if healthy, err := runFsck(&out, dir); err != nil || !healthy {
		t.Fatalf("runFsck = %v, %v:\n%s", healthy, err, out.String())
	}
	if want := "checkpoint ledger-0.ckpt: OK seq 9 (json format, crc verified"; !strings.Contains(out.String(), want) {
		t.Errorf("output missing %q:\n%s", want, out.String())
	}

	j, err := db.OpenFileJournal(filepath.Join(dir, "ledger-0.wal"), true)
	if err != nil {
		t.Fatal(err)
	}
	s, err := db.OpenWithCheckpoint(ckpt, j)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	s.Close()
	out.Reset()
	if healthy, err := runFsck(&out, dir); err != nil || !healthy {
		t.Fatalf("runFsck = %v, %v:\n%s", healthy, err, out.String())
	}
	for _, want := range []string{
		"checkpoint ledger-0.ckpt: OK seq 9 (bin1 format, crc verified",
		"checkpoint ledger-0.ckpt.1: OK seq 9 (json format, crc verified",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}
