// Command gridbankd runs a GridBank server for one Virtual Organization.
//
// On first start with a fresh data directory it bootstraps the VO: a
// certificate authority, the bank's server identity, a "banker"
// administrator identity, and a durable ledger journal. Client and admin
// credentials are written under <data>/ for distribution:
//
//	gridbankd -data /var/lib/gridbank -vo VO-A -listen :7776
//
// Subsequent starts reuse the CA, identities and ledger. Each start
// also writes a ledger checkpoint, so the next restart replays only the
// journal tail written after it (disable with -checkpoint=false).
//
// The data directory's file layout and the boot order belong to
// package internal/node (see its documentation); this command adds the
// CA and identities, the server, replication and the ops endpoint
// around the node it opens.
//
// To enrol a user, issue a certificate with:
//
//	gridbankd -data /var/lib/gridbank -issue alice
//
// which writes alice.crt/alice.key for use with the gridbank CLI.
//
// Replication: a primary exposes its commit stream with -publish, and a
// read replica mirrors it with -replica-of, serving the query subset of
// the API (mutations redirect to the primary named by -primary):
//
//	gridbankd -data /var/lib/gridbank -listen :7776 -publish :7777
//	gridbankd -data /var/lib/gridbank-r1 -replica-of primary:7777 \
//	    -primary primary:7776 -listen :7778
//
// Sharding: -shards N partitions the ledger over N consistent-hash
// shards, one journal per shard (ledger.wal, ledger-1.wal, ...); the
// shard count is fixed once data exists. A sharded -publish serves one
// commit stream per shard on consecutive ports, and a replica follows
// one shard with -shard:
//
//	gridbankd -data /var/lib/gridbank -shards 4 -publish :7777
//	gridbankd -data /var/lib/gridbank-s2 -replica-of primary:7779 \
//	    -shards 4 -shard 2 -primary primary:7776 -listen :7780
//
// The replica's data directory must be seeded with the VO's CA files
// (ca.crt/ca.key from the primary's directory) so its identity chains
// to the same trust root.
//
// Usage settlement: -usage enables the batched asynchronous pipeline
// (Usage.Submit / Usage.Status / Usage.Drain), spooling intake to
// <data>/usage.wal and settling in per-(shard, account) batches:
//
//	gridbankd -data /var/lib/gridbank -shards 4 -usage \
//	    -usage-workers 4 -usage-batch 128
//
// Streaming micropayments: -micropay enables the GridHash streaming
// redemption pipeline (Micropay.Submit / Micropay.Status /
// Micropay.Drain), spooling claim intake to <data>/micropay.wal and
// settling chains in per-(shard, drawer) batches — one ledger
// transaction per chain per batch:
//
//	gridbankd -data /var/lib/gridbank -shards 4 -micropay \
//	    -micropay-workers 4 -micropay-batch 256
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"gridbank/internal/core"
	"gridbank/internal/db"
	"gridbank/internal/node"
	"gridbank/internal/obs"
	"gridbank/internal/pki"
	"gridbank/internal/replica"
	"gridbank/internal/shard"
	"gridbank/internal/wire"
)

func main() {
	if err := run(os.Args[0], os.Args[1:]); err != nil {
		log.Fatalf("gridbankd: %v", err)
	}
}

// run parses the command line and runs the daemon: a read replica with
// -replica-of, otherwise the primary node, which internal/node
// assembles from the data directory.
func run(name string, args []string) error {
	fl := flag.NewFlagSet(name, flag.ExitOnError)
	var spec node.Spec
	fl.StringVar(&spec.Dir, "data", "gridbank-data", "data directory (keys, CA, ledger journal)")
	fl.StringVar(&spec.Branch, "branch", "0001", "four-digit branch number")
	fl.BoolVar(&spec.Sync, "sync", true, "fsync the ledger journal on every commit")
	fl.BoolVar(&spec.Checkpoint, "checkpoint", true, "checkpoint the ledger at startup (restart replays only the tail)")
	fl.IntVar(&spec.Shards, "shards", 1, "partition the ledger over this many shards (one journal per shard; fixed once data exists)")
	fl.BoolVar(&spec.Usage.Enabled, "usage", false, "enable the batched usage-settlement pipeline (Usage.Submit/Status/Drain; spool in <data>/usage.wal)")
	fl.IntVar(&spec.Usage.Workers, "usage-workers", 2, "usage pipeline settlement workers")
	fl.IntVar(&spec.Usage.Batch, "usage-batch", 64, "usage pipeline max charges per ledger transaction")
	fl.IntVar(&spec.Usage.Queue, "usage-queue", 4096, "usage pipeline pending-queue bound (backpressure threshold)")
	fl.BoolVar(&spec.Micropay.Enabled, "micropay", false, "enable the streaming GridHash redemption pipeline (Micropay.Submit/Status/Drain; spool in <data>/micropay.wal)")
	fl.IntVar(&spec.Micropay.Workers, "micropay-workers", 2, "micropay pipeline settlement workers")
	fl.IntVar(&spec.Micropay.Batch, "micropay-batch", 64, "micropay pipeline max claims per settlement pass")
	fl.IntVar(&spec.Micropay.Queue, "micropay-queue", 4096, "micropay pipeline pending-queue bound (backpressure threshold)")
	fl.DurationVar(&spec.DedupTTL, "dedup-ttl", core.DefaultDedupTTL, "retention of idempotency-key dedup markers (<0 disables the sweep)")
	fl.StringVar(&spec.WALCodec, "wal-codec", wire.CodecBin1, "journal codec for new ledger/spool WAL generations: bin1 (length-prefixed binary records) or json; existing files keep their recorded format either way")
	var (
		vo        = fl.String("vo", "VO-A", "virtual organization name (used at bootstrap)")
		listen    = fl.String("listen", "127.0.0.1:7776", "listen address")
		issue     = fl.String("issue", "", "issue a user certificate with this common name and exit")
		publish   = fl.String("publish", "", "serve the replication commit stream on this address (primary)")
		replicaOf = fl.String("replica-of", "", "run as a read replica of the publisher at this address")
		shardIdx  = fl.Int("shard", 0, "with -replica-of on a sharded primary: the shard index this replica follows")
		primary   = fl.String("primary", "", "primary API address advertised in replica redirects")
		maxConns  = fl.Int("max-conns", 0, "maximum concurrent client connections (0 = unlimited)")
		idleConn  = fl.Duration("idle-timeout", core.DefaultIdleTimeout, "drop connections idle this long (<0 disables)")
		inFlight  = fl.Int("max-in-flight", core.DefaultMaxInFlight, "per-connection concurrent request dispatch cap")
		obsAddr   = fl.String("obs-addr", "", "serve /metrics (Prometheus text) and /debug/pprof on this address (keep it loopback, e.g. 127.0.0.1:7790; empty disables)")
		slowOp    = fl.Duration("slow-op", 0, "log a structured line for every request whose queue wait + handler latency reaches this (0 disables)")
		wireCodec = fl.String("wire-codec", wire.CodecBin1, "wire codec policy: bin1 negotiates binary frames per connection (seed peers that never offer stay JSON), json pins the seed format and refuses binary offers")
	)
	fl.Parse(args)
	codecs, err := wireCodecList(*wireCodec)
	if err != nil {
		return err
	}
	if _, ok := wire.CodecByName(spec.WALCodec); !ok {
		return fmt.Errorf("-wal-codec %q: unknown codec", spec.WALCodec)
	}
	// configure applies the connection limits, codec policy and telemetry
	// flags to a server and starts the ops endpoint, returning its bound
	// address ("off" when disabled).
	configure := func(srv *core.Server, reg *obs.Registry) (string, error) {
		srv.MaxConns, srv.IdleTimeout, srv.MaxInFlight, srv.WireCodecs = *maxConns, *idleConn, *inFlight, codecs
		srv.Obs = reg
		if *slowOp > 0 {
			srv.SlowOpLog = obs.NewLogger(os.Stderr, obs.LevelInfo)
			srv.SlowOpThreshold = *slowOp
		}
		if *obsAddr == "" {
			return "off", nil
		}
		return startObsServer(*obsAddr, reg)
	}
	ca, err := loadOrCreateCA(spec.Dir, *vo)
	if err != nil {
		return err
	}
	trust := pki.NewTrustStore(ca.Certificate())
	if *replicaOf != "" {
		id, err := loadOrIssue(spec.Dir, ca, "replica", *vo, true)
		if err != nil {
			return err
		}
		return runReplica(id, trust, *listen, *replicaOf, *primary, *shardIdx, spec.Shards, codecs, configure)
	}
	if *issue != "" {
		id, err := ca.Issue(pki.IssueOptions{CommonName: *issue, Organization: *vo})
		if err != nil {
			return err
		}
		if err := pki.SaveIdentity(spec.Dir, *issue, id); err != nil {
			return err
		}
		fmt.Printf("issued %s -> %s/%s.crt, %s/%s.key\n", id.SubjectName(), spec.Dir, *issue, spec.Dir, *issue)
		return nil
	}
	bankID, err := loadOrIssue(spec.Dir, ca, "bank", *vo, true)
	if err != nil {
		return err
	}
	banker, err := loadOrIssue(spec.Dir, ca, "banker", *vo, false)
	if err != nil {
		return err
	}
	spec.Identity, spec.Trust, spec.Admins = bankID, trust, []string{banker.SubjectName()}
	n, err := node.Open(spec)
	if err != nil {
		return err
	}
	defer n.Close()
	srv, err := core.NewServer(n.Bank, bankID)
	if err != nil {
		return err
	}
	obsBound, err := configure(srv, n.Obs)
	if err != nil {
		return err
	}
	publishers := 0
	if *publish != "" {
		// One commit stream per shard: shard 0 on the given address,
		// shard i on port+i. Replicas subscribe per shard (a replica of
		// shard 2 points -replica-of at port+2).
		host, portStr, err := net.SplitHostPort(*publish)
		if err != nil {
			return fmt.Errorf("-publish %s: %w", *publish, err)
		}
		basePort, err := strconv.Atoi(portStr)
		if err != nil {
			return fmt.Errorf("-publish %s: %w", *publish, err)
		}
		for i, store := range n.Ledger.Stores() {
			pub, err := replica.NewPublisher(replica.PublisherConfig{
				Store:       store,
				Identity:    bankID,
				Trust:       trust,
				PrimaryAddr: *listen,
				WireCodecs:  codecs,
			})
			if err != nil {
				return err
			}
			pub.Log = obs.NewLogger(os.Stderr, obs.LevelInfo)
			publishers++
			addr := net.JoinHostPort(host, strconv.Itoa(basePort+i))
			go func(i int) {
				if err := pub.ListenAndServe(addr); err != nil {
					log.Printf("gridbankd: shard %d replication publisher: %v", i, err)
				}
			}(i)
			log.Printf("gridbankd: publishing shard %d commit stream on %s", i, addr)
		}
	}
	usageWorkers := 0
	if spec.Usage.Enabled {
		usageWorkers = spec.Usage.Workers
	}
	log.Printf("gridbankd: %s branch %s serving on %s (CA %s)",
		bankID.SubjectName(), spec.Branch, *listen, pki.SubjectNameOf(ca.Certificate()))
	log.Printf("gridbankd: topology: shards=%d publishers=%d usage_workers=%d obs=%s dedup_ttl=%v",
		spec.Shards, publishers, usageWorkers, obsBound, spec.DedupTTL)
	return srv.ListenAndServe(*listen)
}

// wireCodecList maps the -wire-codec policy to the accept/offer list
// every server and follower in this process uses.
func wireCodecList(v string) ([]string, error) {
	switch v {
	case wire.CodecBin1:
		return []string{wire.CodecBin1, wire.CodecJSON}, nil
	case wire.CodecJSON:
		return []string{wire.CodecJSON}, nil
	default:
		return nil, fmt.Errorf("-wire-codec %q: unknown codec (want %s or %s)", v, wire.CodecBin1, wire.CodecJSON)
	}
}

// startObsServer serves /metrics and /debug/pprof on addr in the
// background. The listener binds before returning, so a bad address
// fails startup instead of logging asynchronously.
func startObsServer(addr string, reg *obs.Registry) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("-obs-addr %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if err := obs.WritePrometheus(w, reg.Snapshot()); err != nil {
			log.Printf("gridbankd: obs: rendering /metrics: %v", err)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go func() {
		if err := http.Serve(ln, mux); err != nil {
			log.Printf("gridbankd: obs endpoint: %v", err)
		}
	}()
	return ln.Addr().String(), nil
}

// followerOffers maps the process codec policy to the follower's hello
// offer: pinned-to-JSON sends no offer at all, keeping the hello
// byte-identical to the seed protocol.
func followerOffers(codecs []string) []string {
	if len(codecs) == 1 && codecs[0] == wire.CodecJSON {
		return nil
	}
	return codecs
}

// runReplica runs the -replica-of mode: follow the publisher's commit
// stream and serve the query API read-only.
func runReplica(id *pki.Identity, trust *pki.TrustStore, listen, publisherAddr, primaryAddr string, shardIdx, shardCount int, codecs []string, configure func(*core.Server, *obs.Registry) (string, error)) error {
	reg := obs.NewRegistry()
	fol, err := replica.StartFollower(replica.FollowerConfig{
		PublisherAddr: publisherAddr,
		Identity:      id,
		Trust:         trust,
		OfferCodecs:   followerOffers(codecs),
		Log:           obs.NewLogger(os.Stderr, obs.LevelInfo),
		Obs:           reg,
	})
	if err != nil {
		return err
	}
	defer fol.Close()
	if err := fol.WaitReady(30 * time.Second); err != nil {
		return err
	}
	roCfg := core.ReadOnlyBankConfig{
		Identity:    id,
		Trust:       trust,
		PrimaryAddr: primaryAddr,
		Obs:         reg,
	}
	if shardCount > 1 {
		roCfg.Shard = &core.ShardInfo{Index: shardIdx, Count: shardCount}
		// Sanity-check the claimed shard against the mirrored data: the
		// publisher ports are consecutive per shard, so a -shard that
		// disagrees with -replica-of would serve false not_found for
		// every real account. Any account bootstrapped into this store
		// must hash to the claimed shard.
		if err := checkShardIndex(fol.Store(), shardIdx, shardCount); err != nil {
			return err
		}
	}
	rb, err := core.NewReadOnlyBank(fol, roCfg)
	if err != nil {
		return err
	}
	srv, err := core.NewReadOnlyServer(rb, id)
	if err != nil {
		return err
	}
	obsBound, err := configure(srv, reg)
	if err != nil {
		return err
	}
	log.Printf("gridbankd: %s read replica of %s serving on %s (applied seq %d, obs %s)",
		id.SubjectName(), publisherAddr, listen, fol.AppliedSeq(), obsBound)
	return srv.ListenAndServe(listen)
}

// checkShardIndex verifies that the accounts a shard replica mirrored
// actually hash to the shard it claims to serve (-shard vs -replica-of
// mismatch detection). An empty store proves nothing and passes.
func checkShardIndex(store *db.Store, shardIdx, shardCount int) error {
	if store == nil {
		return nil
	}
	ring, err := shard.NewRing(shardCount, 0)
	if err != nil {
		return err
	}
	var mismatch error
	err = store.Scan("accounts", func(key string, _ []byte) bool {
		if owner := ring.ShardFor(key); owner != shardIdx {
			mismatch = fmt.Errorf("mirrored account %s hashes to shard %d, but this replica claims -shard %d of %d — check that -replica-of points at shard %d's stream", key, owner, shardIdx, shardCount, shardIdx)
			return false
		}
		return true
	})
	if err != nil && !errors.Is(err, db.ErrNoTable) {
		return err
	}
	return mismatch
}

// loadOrCreateCA reuses the data directory's CA or bootstraps one.
func loadOrCreateCA(dataDir, vo string) (*pki.CA, error) {
	caID, err := pki.LoadIdentity(dataDir, "ca")
	if err == nil {
		return pki.ResumeCA(caID)
	}
	if !os.IsNotExist(err) {
		return nil, err
	}
	ca, err := pki.NewCA(vo+" CA", vo, 10*365*24*time.Hour)
	if err != nil {
		return nil, err
	}
	if err := pki.SaveIdentity(dataDir, "ca", ca.Identity()); err != nil {
		return nil, err
	}
	if err := pki.SaveCACert(filepath.Join(dataDir, "ca.pem"), ca.Certificate()); err != nil {
		return nil, err
	}
	log.Printf("gridbankd: bootstrapped CA %s (distribute %s/ca.pem to clients)",
		pki.SubjectNameOf(ca.Certificate()), dataDir)
	return ca, nil
}

func loadOrIssue(dataDir string, ca *pki.CA, name, vo string, server bool) (*pki.Identity, error) {
	id, err := pki.LoadIdentity(dataDir, name)
	if err == nil {
		return id, nil
	}
	if !os.IsNotExist(err) {
		return nil, err
	}
	id, err = ca.Issue(pki.IssueOptions{CommonName: name, Organization: vo, IsServer: server})
	if err != nil {
		return nil, err
	}
	if err := pki.SaveIdentity(dataDir, name, id); err != nil {
		return nil, err
	}
	return id, nil
}
