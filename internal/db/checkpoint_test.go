package db

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"reflect"
	"runtime"
	"testing"
)

// ckptTestStore is a small store with binary values, a non-ASCII key,
// an empty value, an empty table and a deleted row.
func ckptTestStore(t testing.TB) *Store {
	t.Helper()
	s := MustOpenMemory()
	for _, name := range []string{"kv", "blobs", "empty"} {
		must(t, s.CreateTable(name))
	}
	must(t, s.Update(func(tx *Tx) error {
		for k, v := range map[string]string{"b": "2", "a": "1", "日本": "non-ascii key", "nil": "", "gone": "x"} {
			if err := tx.Put("kv", k, []byte(v)); err != nil {
				return err
			}
		}
		return tx.Put("blobs", "bin", []byte{0x00, 0xff, 0x7f, '\n'})
	}))
	must(t, s.Update(func(tx *Tx) error { return tx.Delete("kv", "gone") }))
	return s
}

func ckptImage(t testing.TB, s *Store) []byte {
	t.Helper()
	seq, tabs, err := s.cut()
	must(t, err)
	img, err := encodeCheckpoint(seq, tabs)
	must(t, err)
	return img
}

// frameGen2 wraps body in a canonical gen2 header and trailer with a
// correct CRC, so a test can hand the decoder a body that passes every
// check the frame makes.
func frameGen2(body []byte, trailerSeq uint64) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%slen=%d crc=%08x\n", ckptMagic, len(body), crc32.ChecksumIEEE(body))
	b.Write(body)
	fmt.Fprintf(&b, "\n%sseq=%d\n", ckptTrailerMagic, trailerSeq)
	return b.Bytes()
}

// gen2Body splits a gen2 image into header length and body.
func gen2Body(t testing.TB, img []byte) (int, []byte) {
	t.Helper()
	nl := bytes.IndexByte(img, '\n')
	var n int
	var crc uint32
	if _, err := fmt.Sscanf(string(img[len(ckptMagic):nl]), "len=%d crc=%08x", &n, &crc); err != nil {
		t.Fatal(err)
	}
	return nl + 1, img[nl+1 : nl+1+n]
}

// imagesOf turns decoded tables back into encoder input.
func imagesOf(tables map[string]*table) []tableImage {
	tabs := make([]tableImage, 0, len(tables))
	for _, t := range tables {
		tabs = append(tabs, t.imageLocked())
	}
	return tabs
}

func TestCheckpointGen2RoundTripIsCanonical(t *testing.T) {
	s := ckptTestStore(t)
	img := ckptImage(t, s)
	if !bytes.HasPrefix(img, []byte("#GBCKPT2 ")) {
		t.Fatalf("checkpoint not written as gen2: %.20q", img)
	}
	ck, err := decodeCheckpoint(img, true)
	if err != nil {
		t.Fatal(err)
	}
	if ck.format != FormatBin1 || ck.seq != s.CurrentSeq() {
		t.Fatalf("decoded format %q seq %d; want bin1 seq %d", ck.format, ck.seq, s.CurrentSeq())
	}
	want, err := s.Snapshot()
	must(t, err)
	if got := ck.snapshot(); !reflect.DeepEqual(got.Tables, want.Tables) {
		t.Fatalf("decoded tables diverge:\n got %q\nwant %q", got.Tables, want.Tables)
	}
	// Re-encoding the decoded image reproduces it byte for byte.
	again, err := encodeCheckpoint(ck.seq, imagesOf(ck.tables))
	must(t, err)
	if !bytes.Equal(again, img) {
		t.Fatal("re-encoded image differs from the original")
	}
	// One state, one image: a store holding the same rows, written in
	// another order, checkpoints to the same bytes.
	other, err := OpenFromSnapshot(want, nil)
	must(t, err)
	if !bytes.Equal(ckptImage(t, other), img) {
		t.Fatal("same state produced a different image")
	}
}

// TestCheckpointCorruptionIsTyped feeds every gen2 damage shape through
// the decoder, the public reader and fsck. Shapes that keep a valid CRC
// (re-framed bodies) prove the body decoder checks its own structure.
func TestCheckpointCorruptionIsTyped(t *testing.T) {
	img := ckptImage(t, ckptTestStore(t))
	hdr, body := gen2Body(t, img)
	seq := binary.BigEndian.Uint64(body)
	edit := func(off int, f func(b []byte)) []byte {
		b := bytes.Clone(body)
		f(b[off:])
		return frameGen2(b, seq)
	}
	// Body offsets: seq u64, tables u32, then the first table ("blobs"):
	// name str16 at 12, rows u32 at 19, first key str16 at 23 ("bin"),
	// its value blob32 at 28.
	// The last table, "kv", has keys "a" < "b" < ...; its first key's
	// text sits 10 bytes past the table's name prefix.
	kv := bytes.Index(body, []byte("\x00\x02kv"))
	if string(body[14:19]) != "blobs" || string(body[25:28]) != "bin" || kv < 0 || body[kv+10] != 'a' {
		t.Fatalf("unexpected body layout %q", body)
	}
	cases := map[string][]byte{
		"body bit flip":         func() []byte { b := bytes.Clone(img); b[hdr+20] ^= 0x01; return b }(),
		"torn trailer":          img[:len(img)-4],
		"missing trailer":       img[:hdr+len(body)],
		"truncated body":        img[:hdr+len(body)/2],
		"torn header":           img[:hdr-3],
		"empty file":            nil,
		"seq mismatch":          frameGen2(body, seq+1),
		"table count past end":  edit(8, func(b []byte) { binary.BigEndian.PutUint32(b, 1<<30) }),
		"row count past end":    edit(19, func(b []byte) { binary.BigEndian.PutUint32(b, 1<<30) }),
		"key length past end":   edit(23, func(b []byte) { binary.BigEndian.PutUint16(b, 0xffff) }),
		"value length past end": edit(28, func(b []byte) { binary.BigEndian.PutUint32(b, 1<<31) }),
		"table count short":     edit(8, func(b []byte) { binary.BigEndian.PutUint32(b, 2) }),
		"trailing body bytes":   frameGen2(append(bytes.Clone(body), 0), seq),
		"tables out of order":   edit(14, func(b []byte) { b[0] = 'z' }),
		"keys out of order":     edit(kv+10, func(b []byte) { b[0] = 'c' }), // "a" sorts after "b"
		"short body":            frameGen2(body[:10], seq),
		"bytes after trailer":   append(bytes.Clone(img), 'x'),
		"non-canonical header":  bytes.Replace(img, []byte("len="), []byte("len=+"), 1),
		"non-canonical trailer": bytes.Replace(img, []byte("seq="), []byte("seq=0"), 1),
	}
	for name, b := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := decodeCheckpoint(b, true); !errors.Is(err, ErrCheckpointCorrupt) {
				t.Fatalf("decode = %v; want ErrCheckpointCorrupt", err)
			}
			if _, err := decodeCheckpoint(b, false); !errors.Is(err, ErrCheckpointCorrupt) {
				t.Fatalf("verify-only decode = %v; want ErrCheckpointCorrupt", err)
			}
			if _, err := ReadSnapshot(bytes.NewReader(b)); !errors.Is(err, ErrCheckpointCorrupt) {
				t.Fatalf("ReadSnapshot = %v; want ErrCheckpointCorrupt", err)
			}
		})
	}
}

// tableAllocBytes is what one empty decoded table costs: the fixed
// stripe maps every table carries, whatever its size on disk.
var tableAllocBytes = func() uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	tables := make([]*table, 64)
	for i := range tables {
		tables[i] = newTableSized("t", 0)
	}
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(tables)
	return (m1.TotalAlloc - m0.TotalAlloc) / uint64(len(tables))
}()

// decodeAllocBudget bounds what decoding n input bytes may allocate: a
// constant factor of the input, plus the fixed cost of every table the
// input has room for (each needs minTableBytes), plus slack for the
// runtime. Sizing anything by a count read from the input breaks it.
func decodeAllocBudget(n int) uint64 {
	return 64*uint64(n) + tableAllocBytes*uint64(n/minTableBytes+1) + 1<<20
}

// FuzzCheckpointDecode feeds arbitrary bytes to the checkpoint decoder,
// both as a whole file and as a gen2 body framed with a valid CRC and
// trailer (so the body decoder, not the CRC, has to stand). No input
// may panic, fail untyped, or allocate beyond decodeAllocBudget; an
// accepted gen2 image must re-encode to exactly its own bytes.
func FuzzCheckpointDecode(f *testing.F) {
	img := ckptImage(f, ckptTestStore(f))
	_, body := gen2Body(f, img)
	gen1, err := os.ReadFile("testdata/gen1.ckpt")
	must(f, err)
	f.Add(img)
	f.Add(body)
	f.Add(gen1)
	f.Add([]byte(`{"seq":3,"tables":{"t":{"k":"dg=="}}}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		var seq uint64
		if len(b) >= 8 {
			seq = binary.BigEndian.Uint64(b)
		}
		checkCheckpointDecode(t, b)
		checkCheckpointDecode(t, frameGen2(b, seq))
	})
}

func checkCheckpointDecode(t *testing.T, in []byte) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ck, err := decodeCheckpoint(in, true)
	runtime.ReadMemStats(&m1)
	if used, budget := m1.TotalAlloc-m0.TotalAlloc, decodeAllocBudget(len(in)); used > budget {
		t.Fatalf("decoding %d bytes allocated %d (budget %d)", len(in), used, budget)
	}
	if err != nil {
		if !errors.Is(err, ErrCheckpointCorrupt) {
			t.Fatalf("untyped decode error: %v", err)
		}
		return
	}
	if ck.format != FormatBin1 {
		return
	}
	again, err := encodeCheckpoint(ck.seq, imagesOf(ck.tables))
	if err != nil {
		t.Fatalf("accepted image does not re-encode: %v", err)
	}
	if !bytes.Equal(again, in) {
		t.Fatalf("accepted image re-encodes differently:\n in %q\nout %q", in, again)
	}
}

// gen1Image frames sn the way the gen1 writer did: a JSON body under a
// #GBCKPT1 header. It matches testdata/gen1.ckpt byte for byte.
func gen1Image(t testing.TB, sn *Snapshot) []byte {
	t.Helper()
	var body bytes.Buffer
	if _, err := sn.WriteTo(&body); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "%slen=%d crc=%08x\n", ckptMagicGen1, body.Len(), crc32.ChecksumIEEE(body.Bytes()))
	b.Write(body.Bytes())
	fmt.Fprintf(&b, "\n%sseq=%d\n", ckptTrailerMagic, sn.Seq)
	return b.Bytes()
}

func TestGen1ImageHelperMatchesFixture(t *testing.T) {
	fixture, err := os.ReadFile("testdata/gen1.ckpt")
	must(t, err)
	sn, err := ReadSnapshot(bytes.NewReader(fixture))
	must(t, err)
	if !bytes.Equal(gen1Image(t, sn), fixture) {
		t.Fatal("gen1Image does not reproduce the gen1 writer's output")
	}
}

// BenchmarkCheckpointCodec prices one shard-sized checkpoint (32k rows
// of account-sized JSON values) in each generation: the gen2 encode, the
// boot decode straight into tables, the verify-only walk rotation and
// fsck use, and the gen1 JSON decode it replaces.
func BenchmarkCheckpointCodec(b *testing.B) {
	s := MustOpenMemory()
	must(b, s.CreateTable("accounts"))
	for i := 0; i < 32768; i += 512 {
		must(b, s.Update(func(tx *Tx) error {
			for j := i; j < i+512; j++ {
				v := fmt.Sprintf(`{"account_id":"01-0001-%08d","certificate_name":"CN=holder-%06d,O=VO-A","organization_name":"VO-A","available_balance":"1000","locked_balance":"0","currency":"G$","credit_limit":"0","created_at":"2026-06-01T00:00:00Z"}`, j, j)
				if err := tx.Put("accounts", fmt.Sprintf("01-0001-%08d", j), []byte(v)); err != nil {
					return err
				}
			}
			return nil
		}))
	}
	gen2 := ckptImage(b, s)
	sn, err := s.Snapshot()
	must(b, err)
	gen1 := gen1Image(b, sn)
	b.Run("encode/bin1", func(b *testing.B) {
		b.SetBytes(int64(len(gen2)))
		for b.Loop() {
			seq, tabs, err := s.cut()
			must(b, err)
			if _, err := encodeCheckpoint(seq, tabs); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, c := range []struct {
		name  string
		img   []byte
		build bool
	}{
		{"decode/bin1", gen2, true},
		{"verify/bin1", gen2, false},
		{"decode/json", gen1, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(c.img)))
			for b.Loop() {
				if _, err := decodeCheckpoint(c.img, c.build); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
