package main

import (
	"crypto/x509"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gridbank/internal/db"
	"gridbank/internal/pki"
	"gridbank/internal/shard"
)

func TestBootstrapAndResumeCA(t *testing.T) {
	dir := t.TempDir()
	ca1, err := loadOrCreateCA(dir, "VO-T")
	if err != nil {
		t.Fatal(err)
	}
	// Artifacts exist.
	for _, f := range []string{"ca.crt", "ca.key", "ca.pem"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("missing %s: %v", f, err)
		}
	}
	// Second call resumes the same CA.
	ca2, err := loadOrCreateCA(dir, "VO-T")
	if err != nil {
		t.Fatal(err)
	}
	if !ca1.Certificate().Equal(ca2.Certificate()) {
		t.Fatal("CA not resumed")
	}
	// Identities issued by the resumed CA verify against the original
	// trust anchor.
	id, err := ca2.Issue(pki.IssueOptions{CommonName: "post-restart", Organization: "VO-T"})
	if err != nil {
		t.Fatal(err)
	}
	ts := pki.NewTrustStore(ca1.Certificate())
	subj, err := ts.VerifyPeer([]*x509.Certificate{id.Cert}, time.Now())
	if err != nil {
		t.Fatalf("post-restart issuance not trusted: %v", err)
	}
	if subj != "CN=post-restart,O=VO-T" {
		t.Fatalf("subject = %q", subj)
	}
}

func TestLoadOrIssueIdempotent(t *testing.T) {
	dir := t.TempDir()
	ca, err := loadOrCreateCA(dir, "VO-T")
	if err != nil {
		t.Fatal(err)
	}
	id1, err := loadOrIssue(dir, ca, "bank", "VO-T", true)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := loadOrIssue(dir, ca, "bank", "VO-T", true)
	if err != nil {
		t.Fatal(err)
	}
	if !id1.Cert.Equal(id2.Cert) {
		t.Fatal("identity re-issued instead of loaded")
	}
}

func TestIssueFlagWritesIdentity(t *testing.T) {
	dir := t.TempDir()
	if err := run("gridbankd", []string{"-data", dir, "-vo", "VO-T", "-issue", "alice"}); err != nil {
		t.Fatal(err)
	}
	id, err := pki.LoadIdentity(dir, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if id.SubjectName() != "CN=alice,O=VO-T" {
		t.Fatalf("issued subject = %q", id.SubjectName())
	}
}

func TestCheckShardIndexDetectsMismatchedReplica(t *testing.T) {
	store := db.MustOpenMemory()
	if err := store.EnsureTable("accounts"); err != nil {
		t.Fatal(err)
	}
	// Find an account ID on shard 2 of 4 and pretend this replica
	// mirrored it while claiming another shard.
	ring, err := shard.NewRing(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	var id string
	for i := 1; i < 10000; i++ {
		candidate := fmt.Sprintf("01-0001-%08d", i)
		if ring.ShardFor(candidate) == 2 {
			id = candidate
			break
		}
	}
	err = store.Update(func(tx *db.Tx) error { return tx.Put("accounts", id, []byte("{}")) })
	if err != nil {
		t.Fatal(err)
	}
	if err := checkShardIndex(store, 2, 4); err != nil {
		t.Fatalf("correct shard claim rejected: %v", err)
	}
	if err := checkShardIndex(store, 1, 4); err == nil {
		t.Fatal("mismatched shard claim accepted")
	}
	// An empty store proves nothing and passes.
	if err := checkShardIndex(db.MustOpenMemory(), 1, 4); err != nil {
		t.Fatalf("empty store rejected: %v", err)
	}
}
