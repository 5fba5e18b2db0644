package db

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"gridbank/internal/wire"
)

// Snapshot is a point-in-time copy of the whole store, suitable for
// backup, branch bootstrapping (a new VO bank starts from a snapshot of
// the parent), and compacting a long journal.
type Snapshot struct {
	Seq    uint64                       `json:"seq"`
	Tables map[string]map[string][]byte `json:"tables"`
}

// Snapshot captures the current state of every table.
func (s *Store) Snapshot() (*Snapshot, error) {
	seq, tabs, err := s.cut()
	if err != nil {
		return nil, err
	}
	snap := &Snapshot{Seq: seq, Tables: make(map[string]map[string][]byte, len(tabs))}
	for _, t := range tabs {
		rows := make(map[string][]byte, len(t.rows))
		for _, kv := range t.rows {
			rows[kv.key] = cloneBytes(kv.value)
		}
		snap.Tables[t.name] = rows
	}
	return snap, nil
}

// tableImage is one table's rows as a checkpoint carries them. Values
// alias published rows, which are immutable (see row), so an image
// stays valid after the stripe locks it was taken under are released.
type tableImage struct {
	name string
	rows []rowImage
}

type rowImage struct {
	key   string
	value []byte
}

// cut takes one consistent cross-table cut of the store: every table's
// stripes are locked (tables in sorted order, stripes in index order —
// the same global order commits use), the row references collected,
// and the locks released as it goes. Copying and encoding happen after
// the locks are gone.
func (s *Store) cut() (uint64, []tableImage, error) {
	if err := s.failedErr(); err != nil {
		return 0, nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return 0, nil, ErrClosed
	}
	names := make([]string, 0, len(s.tables))
	for n := range s.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s.tables[n].lockAllStripes()
	}
	seq := s.seq.Load()
	tabs := make([]tableImage, 0, len(names))
	for _, n := range names {
		t := s.tables[n]
		tabs = append(tabs, t.imageLocked())
		t.unlockAllStripes()
	}
	return seq, tabs, nil
}

// imageLocked collects the table's rows, unsorted. The caller holds
// every stripe (shared at least) or owns the table outright.
func (t *table) imageLocked() tableImage {
	n := 0
	for i := range t.stripes {
		n += len(t.stripes[i].rows)
	}
	rows := make([]rowImage, 0, n)
	for i := range t.stripes {
		for k, r := range t.stripes[i].rows {
			rows = append(rows, rowImage{k, r.value})
		}
	}
	return tableImage{name: t.name, rows: rows}
}

// WriteTo serializes the snapshot as plain JSON — the seed-era
// headerless export, which ReadSnapshot and checkpoint boots still load
// (checkpoints themselves are always written as gen2, see ckptMagic).
func (sn *Snapshot) WriteTo(w io.Writer) (int64, error) {
	b, err := json.Marshal(sn)
	if err != nil {
		return 0, err
	}
	n, err := w.Write(b)
	return int64(n), err
}

// ReadSnapshot parses a snapshot previously produced by WriteTo (plain
// JSON) or a checkpoint file image of any generation (see the format
// notes at ckptMagic).
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	ck, err := decodeCheckpoint(b, true)
	if err != nil {
		return nil, err
	}
	return ck.snapshot(), nil
}

// SnapshotSince returns the bootstrap artifact for a replica whose
// state already reflects every entry up to fromSeq. A follower that is
// current (fromSeq equals the store's sequence) gets nil — the commit
// stream alone carries its tail. Any other follower — fresh (fromSeq
// zero), behind, or ahead (it outran a primary that lost its tail) —
// gets a full snapshot: the store keeps no per-sequence history, so
// state it cannot bridge over the stream is cheapest to ship whole.
//
// Callers must subscribe to the commit stream *before* calling this,
// so entries sequenced after the returned snapshot's cut are guaranteed
// to be in the subscription buffer.
func (s *Store) SnapshotSince(fromSeq uint64) (*Snapshot, error) {
	if err := s.failedErr(); err != nil {
		return nil, err
	}
	// forceSnap: a publish-then-journal-failure burned sequence numbers
	// without changing state, so seq equality no longer implies equal
	// history — a follower at fromSeq may hold entries this store never
	// applied. Full snapshot resets it.
	if fromSeq != 0 && !s.forceSnap.Load() && s.seq.Load() == fromSeq {
		return nil, nil
	}
	return s.Snapshot()
}

// SaveSnapshotFile writes the store's snapshot to path atomically
// (write-temp-then-rename), in the checksummed checkpoint format.
// Unlike Checkpoint it does not rotate generations: a backup target is
// overwritten in place.
func (s *Store) SaveSnapshotFile(path string) error {
	seq, tabs, err := s.cut()
	if err != nil {
		return err
	}
	return writeSnapshotFile(OSFS(), seq, tabs, path, false)
}

// Checkpoint writes a point-in-time snapshot to path and returns its
// sequence number. A store later opened with OpenWithCheckpoint(path,
// journal) restores from the checkpoint and applies only the journal
// entries sequenced after it — a restart (or a replica bootstrap from
// the same file) no longer replays the full history.
//
// Generations: an existing intact checkpoint at path is rotated to
// path+".1" first (one previous generation is kept), so a checkpoint
// that rots on disk after the journal is compacted never strands the
// deployment without any bootable history. An existing checkpoint that
// fails verification is moved aside to path+".corrupt" instead — it
// must not clobber a possibly-good previous generation.
func (s *Store) Checkpoint(path string) (uint64, error) {
	return s.CheckpointFS(OSFS(), path)
}

// CheckpointFS is Checkpoint over an explicit filesystem — the seam the
// diskfault package injects faults through.
func (s *Store) CheckpointFS(fsys FS, path string) (uint64, error) {
	seq, tabs, err := s.cut()
	if err != nil {
		return 0, err
	}
	if err := writeSnapshotFile(fsys, seq, tabs, path, true); err != nil {
		return 0, err
	}
	return seq, nil
}

// Checkpoint file formats. Every generation shares one frame:
//
//	#GBCKPT<v> len=<body bytes> crc=<crc32-ieee hex>\n
//	<body>
//	\n#GBCKPTE seq=<seq>\n
//
// The header's CRC covers exactly the body, so at-rest bit rot anywhere
// in the state is detected at boot; the trailer is written last, so a
// torn write (crash mid-checkpoint, before the atomic rename this file
// normally hides behind) is detected even when the tear falls on a
// block boundary the CRC read would miss. The trailer repeats the
// snapshot sequence as a cross-check against header/body confusion.
//
// Generations, newest first. Every checkpoint write produces gen2;
// gen1 and legacy files are only read.
//
// gen2 (#GBCKPT2, format "bin1") has a binary body built with wire's
// binary toolkit (big-endian, length-prefixed):
//
//	seq:u64 tables:u32 × ( name:str16 rows:u32 × ( key:str16 value:blob32 ) )
//
// Tables and keys appear in strictly ascending byte order, so one state
// always yields one image, and a decoder rejects any other order (or a
// duplicate) as corruption.
//
// gen1 (#GBCKPT1, format "json") has the JSON snapshot as its body.
//
// legacy (format "legacy") is a headerless raw-JSON file from before
// the checksummed frame. The magic's first byte '#' can never open a
// JSON value, so it stays distinguishable — pinned by regression tests.
const (
	ckptMagic        = "#GBCKPT2 "
	ckptMagicGen1    = "#GBCKPT1 "
	ckptTrailerMagic = "#GBCKPTE "
)

// Checkpoint body formats, as BootInfo.Format and CheckpointReport.
// Format name them (matching JournalReport.Codec's codec names).
const (
	FormatLegacy = "legacy"
	FormatJSON   = "json"
	FormatBin1   = "bin1"
)

// ErrCheckpointCorrupt tags a checkpoint file that failed verification:
// bad CRC, torn trailer, malformed header, or undecodable body.
var ErrCheckpointCorrupt = errors.New("db: checkpoint corrupt")

// ErrNoIntactHistory is the typed boot refusal: no checkpoint
// generation survives verification AND the journal does not cover the
// missing span, so any state the store could produce would silently
// roll back acked history. Operators diagnose with `gbadmin fsck`.
var ErrNoIntactHistory = errors.New("db: no intact source of history")

// Smallest encodings of a table (name:str16 + rows:u32) and of a row
// (key:str16 + value:blob32): a count read from a gen2 body is checked
// against them before anything is sized by it.
const (
	minTableBytes = 2 + 4
	minRowBytes   = 2 + 4
)

// encodeCheckpoint renders a gen2 checkpoint image. It sorts tabs (and
// every table's rows) in place.
func encodeCheckpoint(seq uint64, tabs []tableImage) ([]byte, error) {
	slices.SortFunc(tabs, func(a, b tableImage) int { return strings.Compare(a.name, b.name) })
	bodyLen := 8 + 4
	for _, t := range tabs {
		slices.SortFunc(t.rows, func(a, b rowImage) int { return strings.Compare(a.key, b.key) })
		bodyLen += minTableBytes + len(t.name)
		for _, r := range t.rows {
			bodyLen += minRowBytes + len(r.key) + len(r.value)
		}
	}
	// The CRC is patched into the header once the body is in place, so
	// the image is built in one exactly-sized buffer.
	header := fmt.Sprintf("%slen=%d crc=%08x\n", ckptMagic, bodyLen, 0)
	trailer := fmt.Sprintf("\n%sseq=%d\n", ckptTrailerMagic, seq)
	var buf bytes.Buffer
	buf.Grow(len(header) + bodyLen + len(trailer))
	buf.WriteString(header)
	wire.AppendU64(&buf, seq)
	if len(tabs) > math.MaxUint32 {
		return nil, fmt.Errorf("db: %d tables in one checkpoint", len(tabs))
	}
	wire.AppendU32(&buf, uint32(len(tabs)))
	for _, t := range tabs {
		if err := wire.AppendStr16(&buf, t.name); err != nil {
			return nil, fmt.Errorf("db: checkpoint table %.32q: %w", t.name, err)
		}
		if len(t.rows) > math.MaxUint32 {
			return nil, fmt.Errorf("db: %d rows in checkpoint table %q", len(t.rows), t.name)
		}
		wire.AppendU32(&buf, uint32(len(t.rows)))
		for _, r := range t.rows {
			if err := wire.AppendStr16(&buf, r.key); err != nil {
				return nil, fmt.Errorf("db: checkpoint key %.32q in %q: %w", r.key, t.name, err)
			}
			if err := wire.AppendBlob32(&buf, r.value); err != nil {
				return nil, fmt.Errorf("db: checkpoint value %.32q in %q: %w", r.key, t.name, err)
			}
		}
	}
	img := buf.Bytes()
	crc := crc32.ChecksumIEEE(img[len(header):])
	copy(img[len(header)-9:], fmt.Sprintf("%08x", crc))
	buf.WriteString(trailer)
	return buf.Bytes(), nil
}

// checkpoint is one decoded, verified checkpoint image.
type checkpoint struct {
	seq    uint64
	format string
	tables map[string]*table // nil unless decoded with build
}

// snapshot returns a built image as a Snapshot. The values are handed
// over, not copied: a decoded image owns them.
func (ck *checkpoint) snapshot() *Snapshot {
	sn := &Snapshot{Seq: ck.seq, Tables: make(map[string]map[string][]byte, len(ck.tables))}
	for name, t := range ck.tables {
		img := t.imageLocked()
		rows := make(map[string][]byte, len(img.rows))
		for _, r := range img.rows {
			rows[r.key] = r.value
		}
		sn.Tables[name] = rows
	}
	return sn
}

// decodeCheckpoint parses and verifies a checkpoint image of any
// generation. With build, the image is decoded into store tables (a
// gen2 body straight into them); without, it is only verified, which
// for a gen2 body means a walk with no copies. The returned checkpoint
// is never nil, so a caller can report the format of a corrupt image.
// Verification failures wrap ErrCheckpointCorrupt.
func decodeCheckpoint(b []byte, build bool) (*checkpoint, error) {
	gen2 := bytes.HasPrefix(b, []byte(ckptMagic))
	if !gen2 && !bytes.HasPrefix(b, []byte(ckptMagicGen1)) {
		// Legacy headerless checkpoint: the whole file is the JSON body.
		ck := &checkpoint{format: FormatLegacy}
		if err := ck.decodeJSON(b, build); err != nil {
			return ck, fmt.Errorf("%w: legacy body: %v", ErrCheckpointCorrupt, err)
		}
		return ck, nil
	}
	ck := &checkpoint{format: FormatJSON}
	if gen2 {
		ck.format = FormatBin1
	}
	nl := bytes.IndexByte(b, '\n')
	if nl < 0 {
		return ck, fmt.Errorf("%w: torn header", ErrCheckpointCorrupt)
	}
	var bodyLen int
	var crc uint32
	// Both magics are the same length, so one offset serves both.
	if _, err := fmt.Sscanf(string(b[len(ckptMagic):nl]), "len=%d crc=%08x", &bodyLen, &crc); err != nil {
		return ck, fmt.Errorf("%w: malformed header: %v", ErrCheckpointCorrupt, err)
	}
	if gen2 && string(b[:nl+1]) != fmt.Sprintf("%slen=%d crc=%08x\n", ckptMagic, bodyLen, crc) {
		return ck, fmt.Errorf("%w: malformed header: not canonical", ErrCheckpointCorrupt)
	}
	rest := b[nl+1:]
	if bodyLen < 0 || len(rest) < bodyLen {
		return ck, fmt.Errorf("%w: truncated body (%d of %d bytes)", ErrCheckpointCorrupt, len(rest), bodyLen)
	}
	body, tail := rest[:bodyLen], rest[bodyLen:]
	var trailerSeq uint64
	if _, err := fmt.Sscanf(string(tail), "\n"+ckptTrailerMagic+"seq=%d\n", &trailerSeq); err != nil {
		return ck, fmt.Errorf("%w: missing or torn trailer", ErrCheckpointCorrupt)
	}
	if gen2 && string(tail) != fmt.Sprintf("\n%sseq=%d\n", ckptTrailerMagic, trailerSeq) {
		return ck, fmt.Errorf("%w: malformed trailer", ErrCheckpointCorrupt)
	}
	if got := crc32.ChecksumIEEE(body); got != crc {
		return ck, fmt.Errorf("%w: body crc %08x, header says %08x", ErrCheckpointCorrupt, got, crc)
	}
	if gen2 {
		var into map[string]*table
		if build {
			into = make(map[string]*table)
		}
		seq, err := decodeBinBody(body, into)
		if err != nil {
			return ck, fmt.Errorf("%w: body decode: %v", ErrCheckpointCorrupt, err)
		}
		ck.seq, ck.tables = seq, into
	} else if err := ck.decodeJSON(body, build); err != nil {
		return ck, fmt.Errorf("%w: body decode: %v", ErrCheckpointCorrupt, err)
	}
	if ck.seq != trailerSeq {
		return ck, fmt.Errorf("%w: body seq %d, trailer says %d", ErrCheckpointCorrupt, ck.seq, trailerSeq)
	}
	return ck, nil
}

// decodeJSON decodes a JSON snapshot body (gen1 or legacy).
func (ck *checkpoint) decodeJSON(body []byte, build bool) error {
	var sn Snapshot
	if err := json.Unmarshal(body, &sn); err != nil {
		return err
	}
	ck.seq = sn.Seq
	if build {
		// A freshly decoded snapshot owns its values: no copy needed.
		ck.tables = tablesFromSnapshot(&sn, false)
	}
	return nil
}

// decodeBinBody walks a gen2 body, enforcing the canonical order. With
// into non-nil every table is built straight into it; nil only verifies.
// Every count is bounded by the bytes left in the body before anything
// is sized by it, so a hostile count cannot inflate an allocation.
func decodeBinBody(body []byte, into map[string]*table) (uint64, error) {
	r := wire.NewBinReader(body)
	seq := r.U64()
	nt := r.U32()
	if err := r.Err(); err != nil {
		return 0, err
	}
	if uint64(nt) > uint64(r.Len()/minTableBytes) {
		return 0, fmt.Errorf("table count %d runs past the body end", nt)
	}
	var prevName []byte
	for i := uint32(0); i < nt; i++ {
		name := r.View16()
		nr := r.U32()
		if err := r.Err(); err != nil {
			return 0, err
		}
		if i > 0 && bytes.Compare(prevName, name) >= 0 {
			return 0, fmt.Errorf("table %.32q out of order", name)
		}
		prevName = name
		if uint64(nr) > uint64(r.Len()/minRowBytes) {
			return 0, fmt.Errorf("row count %d in table %.32q runs past the body end", nr, name)
		}
		var t *table
		if into != nil {
			t = newTableSized(string(name), int(nr))
			into[t.name] = t
		}
		var prevKey []byte
		for j := uint32(0); j < nr; j++ {
			key := r.View16()
			value := r.View32()
			if err := r.Err(); err != nil {
				return 0, err
			}
			if j > 0 && bytes.Compare(prevKey, key) >= 0 {
				return 0, fmt.Errorf("key %.32q in table %.32q out of order", key, name)
			}
			prevKey = key
			if t != nil {
				k := string(key)
				t.stripes[stripeFor(k)].rows[k] = &row{value: cloneBytes(value)}
			}
		}
	}
	return seq, r.Close()
}

// readCheckpointFile loads and verifies one checkpoint generation.
// Missing files return os.ErrNotExist; verification failures wrap
// ErrCheckpointCorrupt.
func readCheckpointFile(fsys FS, path string, build bool) (*checkpoint, error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	b, err := readWhole(f)
	if err != nil {
		return nil, err
	}
	return decodeCheckpoint(b, build)
}

// writeSnapshotFile writes a gen2 image of the cut to path atomically: encode to path+".tmp",
// fsync, rename into place, fsync the directory (the rename is
// directory metadata — without the dir fsync it may not survive power
// loss, and callers compact the journal right after a checkpoint, so a
// vanished rename plus a truncated journal would lose the whole
// ledger). The temp file is removed on every failure path, and with
// rotate an intact existing checkpoint is preserved as path+".1".
func writeSnapshotFile(fsys FS, seq uint64, tabs []tableImage, path string, rotate bool) error {
	img, err := encodeCheckpoint(seq, tabs)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o600)
	if err != nil {
		return err
	}
	cleanup := func(err error) error {
		fsys.Remove(tmp) // best effort: never leave a stale .tmp behind
		return err
	}
	if _, err := f.Write(img); err != nil {
		f.Close()
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		return cleanup(err)
	}
	if rotate {
		if err := rotateCheckpoint(fsys, path); err != nil {
			return cleanup(err)
		}
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return cleanup(err)
	}
	if err := syncParentDir(fsys, path); err != nil {
		return cleanup(err)
	}
	return nil
}

// rotateCheckpoint moves an existing checkpoint at path out of the way
// before a new one is renamed in: an intact (or legacy) generation
// becomes path+".1" — the fallback OpenWithCheckpoint boots from if the
// new file later rots — while a corrupt one is moved aside to
// path+".corrupt" so it can never clobber a possibly-good previous
// generation (rotating garbage over the only intact fallback would turn
// a recoverable fault into data loss).
func rotateCheckpoint(fsys FS, path string) error {
	if _, err := fsys.Stat(path); err != nil {
		if os.IsNotExist(err) {
			return nil // first checkpoint ever: nothing to rotate
		}
		return err
	}
	dest := path + ".1"
	if _, err := readCheckpointFile(fsys, path, false); err != nil {
		dest = path + ".corrupt"
	}
	return fsys.Rename(path, dest)
}

// BootInfo reports how OpenWithCheckpointFS recovered the store: which
// checkpoint generation (if any) it restored from, and any fallbacks it
// took on the way. Generation 0 is <path>, generation 1 is <path>.1,
// and -1 means no checkpoint was used (full journal replay).
type BootInfo struct {
	// Generation actually restored from (-1: plain journal replay).
	Generation int
	// Path of the restored checkpoint ("" when Generation is -1).
	Path string
	// Seq of the restored checkpoint (0 when Generation is -1).
	Seq uint64
	// Legacy reports a headerless pre-checksum checkpoint.
	Legacy bool
	// Format of the restored checkpoint's body: FormatLegacy,
	// FormatJSON or FormatBin1 ("" when Generation is -1).
	Format string
	// ModTime of the restored checkpoint file (zero when none) — feeds
	// the db.checkpoint_age_seconds gauge.
	ModTime time.Time
	// Fallbacks lists what was skipped and why, in the order tried
	// (e.g. "ledger.ckpt: db: checkpoint corrupt: body crc ...").
	Fallbacks []string
}

// OpenWithCheckpoint opens a store from a checkpoint file plus the
// journal holding writes made after the checkpoint was taken. A missing
// checkpoint file degrades to a plain Open (full journal replay), so
// first boots and checkpoint-less deployments need no special casing.
//
// Fault tolerance — the fallback chain, each step verified before use:
//
//  1. <path> intact (CRC + trailer, or legacy headerless) and the
//     journal reaches back to it → restore + tail replay.
//  2. <path> corrupt or missing → <path>.1 (the previous generation),
//     if the journal still covers the span since it (the pre-Compact
//     crash window leaves exactly this shape) → restore + longer
//     journal replay.
//  3. Every generation corrupt but the journal intact from sequence 1 →
//     plain Open (full history replay).
//  4. Otherwise the boot refuses with ErrNoIntactHistory: any state it
//     could produce would silently roll back acked writes.
//
// Stale <path>.tmp files (a crash between checkpoint write and rename)
// are swept on open.
func OpenWithCheckpoint(checkpointPath string, journal Journal) (*Store, error) {
	s, _, err := OpenWithCheckpointFS(OSFS(), checkpointPath, journal)
	return s, err
}

// OpenWithCheckpointFS is OpenWithCheckpoint over an explicit
// filesystem, reporting how recovery went.
func OpenWithCheckpointFS(fsys FS, checkpointPath string, journal Journal) (*Store, *BootInfo, error) {
	info := &BootInfo{Generation: -1}
	// Sweep the stale temp file a crash between write and rename leaves
	// behind; it was never published, so it holds nothing durable.
	if _, err := fsys.Stat(checkpointPath + ".tmp"); err == nil {
		fsys.Remove(checkpointPath + ".tmp")
	}

	// One journal pre-pass: the first sequence number bounds how far
	// back the journal reaches, which decides whether a fallback
	// generation (or a full replay) can bridge to the present without a
	// gap. The pass also settles torn tails up front, exactly as the
	// final replay would.
	firstSeq, haveEntries, err := journalFirstSeq(journal)
	if err != nil {
		return nil, nil, fmt.Errorf("db: journal pre-scan: %w", err)
	}

	type gen struct {
		idx  int
		path string
	}
	gens := []gen{{0, checkpointPath}, {1, checkpointPath + ".1"}}
	newestExists := false
	for _, g := range gens {
		ck, err := readCheckpointFile(fsys, g.path, true)
		if err != nil {
			if os.IsNotExist(err) {
				if g.idx == 0 {
					continue // missing newest: rotation crash window, try .1
				}
				break // no older generation either
			}
			info.Fallbacks = append(info.Fallbacks, fmt.Sprintf("%s: %v", g.path, err))
			if g.idx == 0 {
				newestExists = true
			}
			continue
		}
		// Continuity: restoring from a generation at seq S needs journal
		// coverage from S+1 on. An empty journal proves continuity only
		// when nothing could have been compacted past this generation —
		// i.e. for the newest file, or for .1 when the newest was never
		// published (crash between the rotation renames). When the
		// newest file EXISTS but is corrupt, writes since this older
		// generation may already have been compacted away, so an empty
		// journal proves nothing and the gap must be assumed.
		if haveEntries && firstSeq > ck.seq+1 {
			info.Fallbacks = append(info.Fallbacks,
				fmt.Sprintf("%s: journal starts at seq %d, past checkpoint seq %d+1 (span compacted away)", g.path, firstSeq, ck.seq))
			continue
		}
		if !haveEntries && g.idx > 0 && newestExists {
			info.Fallbacks = append(info.Fallbacks,
				fmt.Sprintf("%s: journal empty and a newer (corrupt) generation exists — span since seq %d unprovable", g.path, ck.seq))
			continue
		}
		st, err := openFromTables(ck.seq, ck.tables, journal)
		if err != nil {
			return nil, nil, fmt.Errorf("db: checkpoint %s: %w", g.path, err)
		}
		info.Generation = g.idx
		info.Path = g.path
		info.Seq = ck.seq
		info.Format = ck.format
		info.Legacy = ck.format == FormatLegacy
		if fi, err := fsys.Stat(g.path); err == nil {
			info.ModTime = fi.ModTime()
		}
		return st, info, nil
	}

	// No usable generation. A journal covering full history (from seq 1)
	// still boots the true state; so does a completely fresh directory.
	if !haveEntries || firstSeq <= 1 {
		if len(info.Fallbacks) > 0 && haveEntries {
			// Corrupt checkpoints present, but the journal alone is the
			// whole history: plain open is exact.
		} else if len(info.Fallbacks) > 0 && !haveEntries {
			// Corrupt checkpoint(s) and an empty journal: whatever the
			// checkpoints held is gone. Refuse.
			return nil, nil, fmt.Errorf("%w: %s unreadable (%s) and journal empty; run `gbadmin fsck` on the data directory",
				ErrNoIntactHistory, checkpointPath, strings.Join(info.Fallbacks, "; "))
		}
		st, err := Open(journal)
		if err != nil {
			return nil, nil, err
		}
		return st, info, nil
	}
	return nil, nil, fmt.Errorf("%w: every checkpoint generation of %s failed verification (%s) and the journal only reaches back to seq %d; run `gbadmin fsck` on the data directory",
		ErrNoIntactHistory, checkpointPath, strings.Join(info.Fallbacks, "; "), firstSeq)
}

// journalFirstSeq scans the journal for its first (non-zero) sequence
// number. haveEntries is false for a nil or empty journal. The scan
// settles torn tails exactly as the boot replay that follows would.
func journalFirstSeq(journal Journal) (firstSeq uint64, haveEntries bool, err error) {
	if journal == nil {
		return 0, false, nil
	}
	err = journal.Replay(func(e Entry) error {
		haveEntries = true
		if firstSeq == 0 {
			firstSeq = e.Seq
		}
		return nil
	})
	if err != nil {
		return 0, false, err
	}
	if haveEntries && firstSeq == 0 {
		// Sequence-less entries predate the replication clock; they can
		// only be a whole-history journal.
		firstSeq = 1
	}
	return firstSeq, haveEntries, nil
}

// OpenFromSnapshot builds a store from a snapshot plus an optional journal
// holding writes made after the snapshot was taken. Journal entries with
// Seq <= snapshot Seq are skipped (already reflected in the snapshot).
// The snapshot's values are copied: the caller keeps ownership of sn.
func OpenFromSnapshot(sn *Snapshot, journal Journal) (*Store, error) {
	return openFromTables(sn.Seq, tablesFromSnapshot(sn, true), journal)
}

// tablesFromSnapshot builds store tables from a snapshot, copying every
// value when clone is set.
func tablesFromSnapshot(sn *Snapshot, clone bool) map[string]*table {
	tables := make(map[string]*table, len(sn.Tables))
	for name, rows := range sn.Tables {
		t := newTableSized(name, len(rows))
		for k, v := range rows {
			if clone {
				v = cloneBytes(v)
			}
			t.stripes[stripeFor(k)].rows[k] = &row{value: v}
		}
		tables[name] = t
	}
	return tables
}

// openFromTables builds a store over tables restored at seq, then
// replays the journal entries sequenced after it.
func openFromTables(seq uint64, tables map[string]*table, journal Journal) (*Store, error) {
	s := &Store{tables: tables, journal: journal, instance: newInstanceID()}
	s.seq.Store(seq)
	if journal != nil {
		err := journal.Replay(func(e Entry) error {
			if e.Seq != 0 && e.Seq <= seq {
				return nil
			}
			return s.applyEntry(e)
		})
		if err != nil {
			return nil, fmt.Errorf("db: post-snapshot replay: %w", err)
		}
	}
	return s, nil
}
