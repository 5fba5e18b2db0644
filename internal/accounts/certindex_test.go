package accounts

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"gridbank/internal/currency"
)

// decodeCertKeys is the reference index function: the full decode the
// fast path must always agree with.
func decodeCertKeys(value []byte) []string {
	a, err := decodeAccount(value)
	if err != nil || a.Closed {
		return nil
	}
	return []string{a.CertificateName}
}

// nameParts are the fragments generated names are built from: plain
// text, JSON metacharacters, HTML characters the encoder escapes,
// non-ASCII, and field-shaped text that must never be read as a field.
var nameParts = []string{
	"CN=alice", ",O=VO-A", `"`, `\`, `\"`, "<", ">", "&", "é", "日本", "\u2028",
	`,"closed":true`, `,"closed":false`, `","closed":true,"x":"`, `"}`, " ", "\t", "\x00",
}

// genAccount is a random account record for quick.Check.
type genAccount struct{ a Account }

func genString(r *rand.Rand) string {
	var b strings.Builder
	for n := r.Intn(5); n >= 0; n-- {
		b.WriteString(nameParts[r.Intn(len(nameParts))])
	}
	return b.String()
}

func (genAccount) Generate(r *rand.Rand, _ int) reflect.Value {
	a := Account{
		AccountID:        MakeID(1, 1, uint64(r.Intn(1e8))),
		CertificateName:  genString(r),
		OrganizationName: genString(r),
		AvailableBalance: currency.FromMicro(r.Int63n(1e12) - 5e11),
		LockedBalance:    currency.FromMicro(r.Int63n(1e9)),
		Currency:         currency.GridDollar,
		CreditLimit:      currency.FromMicro(r.Int63n(1e9)),
		Closed:           r.Intn(2) == 0,
		CreatedAt:        time.Unix(r.Int63n(4e9), r.Int63n(1e9)).In(time.FixedZone("", 3600*(r.Intn(25)-12))),
	}
	if r.Intn(4) == 0 {
		a.OrganizationName = genString(r) + `,"closed":true`
	}
	return reflect.ValueOf(genAccount{a})
}

// TestCertIndexFastPathMatchesDecodeProperty checks that the index
// function files every generated account exactly where the full decode
// would, closed or open, whatever its names contain.
func TestCertIndexFastPathMatchesDecodeProperty(t *testing.T) {
	var fast, closed int
	prop := func(g genAccount) bool {
		v := encodeAccount(&g.a)
		if _, c, ok := scanAccountCert(v); ok {
			fast++
			if c {
				closed++
			}
		}
		return reflect.DeepEqual(certIndexKeys("", v), decodeCertKeys(v))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
	// The generator must reach the fast path, open and closed, or the
	// property says nothing about it.
	if closed == 0 || closed == fast {
		t.Fatalf("fast path taken %d times (%d closed): generator does not exercise it", fast, closed)
	}
}

// TestCertIndexFastPathCoversPlainAccounts pins that the fast path is
// actually taken for the records encodeAccount writes, open and closed,
// including non-ASCII names — and not for names that need escapes.
func TestCertIndexFastPathCoversPlainAccounts(t *testing.T) {
	for _, tc := range []struct {
		cert   string
		closed bool
		fast   bool
	}{
		{"CN=holder-000001,O=VO-A", false, true},
		{"CN=holder-000001,O=VO-A", true, true},
		{"CN=José Müller,O=東京", false, true},
		{`CN=a"b`, false, false},
		{`CN=a\b`, false, false},
		{"CN=<a&b>", false, false},
	} {
		a := Account{AccountID: "01-0001-00000001", CertificateName: tc.cert, OrganizationName: "VO-A",
			AvailableBalance: currency.FromG(3), Currency: currency.GridDollar, Closed: tc.closed, CreatedAt: testEpoch}
		v := encodeAccount(&a)
		cert, closed, ok := scanAccountCert(v)
		if ok != tc.fast {
			t.Errorf("%q: fast path taken = %v, want %v (record %s)", tc.cert, ok, tc.fast, v)
		}
		if ok && (cert != tc.cert || closed != tc.closed) {
			t.Errorf("%q: fast path read (%q, %v), want (%q, %v)", tc.cert, cert, closed, tc.cert, tc.closed)
		}
		if got, want := certIndexKeys("", v), decodeCertKeys(v); !reflect.DeepEqual(got, want) {
			t.Errorf("%q: index keys %q, decode says %q", tc.cert, got, want)
		}
	}
}

// TestCertIndexFastPathMatchesDecodeOnOddRows feeds rows encodeAccount
// never writes — reordered or missing fields, raw control bytes,
// invalid UTF-8, malformed amounts or timestamps, trailing bytes — and
// checks the index still agrees with the full decode on each.
func TestCertIndexFastPathMatchesDecodeOnOddRows(t *testing.T) {
	base := encodeAccount(&Account{AccountID: "01-0001-00000001", CertificateName: "CN=x", OrganizationName: "VO-A",
		AvailableBalance: currency.FromG(1), Currency: currency.GridDollar, CreatedAt: testEpoch})
	edit := func(old, new string) []byte {
		if !bytes.Contains(base, []byte(old)) {
			t.Fatalf("base record %s lacks %q", base, old)
		}
		return bytes.Replace(base, []byte(old), []byte(new), 1)
	}
	rows := map[string][]byte{
		"base":               base,
		"closed false":       edit(`,"created_at"`, `,"closed":false,"created_at"`),
		"closed true":        edit(`,"created_at"`, `,"closed":true,"created_at"`),
		"closed twice":       edit(`,"created_at"`, `,"closed":true,"closed":false,"created_at"`),
		"closed capitalised": edit(`,"created_at"`, `,"Closed":true,"created_at"`),
		"invalid utf8 cert":  edit(`CN=x`, "CN=\xff\xfe"),
		"control byte cert":  edit(`CN=x`, "CN=\x01"),
		"raw u2028 cert":     edit(`CN=x`, "CN=\u2028"),
		"escaped cert":       edit(`CN=x`, `CN=\u0078`),
		"bad amount":         edit(`"available_balance":"1"`, `"available_balance":"1.2.3"`),
		"numeric amount":     edit(`"available_balance":"1"`, `"available_balance":1`),
		"bad time":           edit(`"created_at":"2026`, `"created_at":"x2026`),
		"trailing space":     append(append([]byte(nil), base...), ' '),
		"trailing garbage":   append(append([]byte(nil), base...), '}'),
		"truncated":          base[:len(base)-2],
		"reordered":          edit(`{"account_id":"01-0001-00000001","certificate_name":"CN=x"`, `{"certificate_name":"CN=x","account_id":"01-0001-00000001"`),
		"missing org":        edit(`,"organization_name":"VO-A"`, ``),
		"empty":              nil,
		"not json":           []byte("garbage"),
	}
	for name, v := range rows {
		if got, want := certIndexKeys("", v), decodeCertKeys(v); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: index keys %q, decode says %q (row %q)", name, got, want, v)
		}
	}
}

func BenchmarkCertIndexKeys(b *testing.B) {
	v := encodeAccount(&Account{AccountID: "01-0001-00000001", CertificateName: "CN=holder-000001,O=VO-A",
		OrganizationName: "VO-A", AvailableBalance: currency.FromG(100), Currency: currency.GridDollar, CreatedAt: testEpoch})
	b.Run("fast", func(b *testing.B) {
		for b.Loop() {
			certIndexKeys("", v)
		}
	})
	b.Run("decode", func(b *testing.B) {
		for b.Loop() {
			decodeCertKeys(v)
		}
	})
}
