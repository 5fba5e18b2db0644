package accounts

import (
	"bytes"
	"time"
	"unicode/utf8"

	"gridbank/internal/currency"
)

// certIndexKeys is the by-certificate-name index function: an open
// account is filed under its certificate name, a closed one nowhere.
// It runs on every account row at boot (the index backfill) and on
// every account put, so it reads the two fields it needs straight from
// the layout encodeAccount writes, and decodes the whole record only
// for rows in any other shape.
func certIndexKeys(_ string, value []byte) []string {
	cert, closed, ok := scanAccountCert(value)
	if !ok {
		a, err := decodeAccount(value)
		if err != nil {
			return nil
		}
		cert, closed = a.CertificateName, a.Closed
	}
	if closed {
		return nil
	}
	return []string{cert}
}

// The fields of an encodeAccount record, in the order it writes them.
// "closed" is omitted when false and otherwise sits before created_at.
var (
	acctPrefix    = []byte(`{"account_id":`)
	acctCert      = []byte(`,"certificate_name":`)
	acctOrg       = []byte(`,"organization_name":`)
	acctAvailable = []byte(`,"available_balance":`)
	acctLocked    = []byte(`,"locked_balance":`)
	acctCurrency  = []byte(`,"currency":`)
	acctCredit    = []byte(`,"credit_limit":`)
	acctClosed    = []byte(`,"closed":true`)
	acctCreated   = []byte(`,"created_at":`)
)

// scanAccountCert reads certificate_name and closed from an account
// record in exactly the layout encodeAccount produces. ok is false for
// anything else — a string with an escape, a control byte or invalid
// UTF-8, another field order, or a value decodeAccount would reject —
// and the caller falls back to the full decode, so both paths always
// agree. Every value is checked the way json.Unmarshal would check it.
func scanAccountCert(b []byte) (cert string, closed, ok bool) {
	p := acctScanner{b: b}
	p.str(acctPrefix)
	certRaw := p.str(acctCert)
	p.str(acctOrg)
	p.amount(acctAvailable)
	p.amount(acctLocked)
	p.str(acctCurrency)
	p.amount(acctCredit)
	closed = p.optional(acctClosed)
	created := p.quoted(acctCreated)
	if p.bad || len(p.b) != 1 || p.b[0] != '}' {
		return "", false, false
	}
	var at time.Time
	if at.UnmarshalJSON(created) != nil {
		return "", false, false
	}
	if !utf8.Valid(certRaw) {
		return "", false, false // json.Unmarshal would substitute U+FFFD
	}
	return string(certRaw), closed, true
}

// acctScanner walks a record field by field with a sticky failure flag.
type acctScanner struct {
	b   []byte
	bad bool
}

// quoted consumes key then a JSON string, returning the string with its
// quotes. Strings that need unescaping fail the scan.
func (p *acctScanner) quoted(key []byte) []byte {
	if p.bad || !bytes.HasPrefix(p.b, key) {
		p.bad = true
		return nil
	}
	rest := p.b[len(key):]
	if len(rest) == 0 || rest[0] != '"' {
		p.bad = true
		return nil
	}
	for i := 1; i < len(rest); i++ {
		switch c := rest[i]; {
		case c == '"':
			p.b = rest[i+1:]
			return rest[:i+1]
		case c == '\\' || c < 0x20:
			p.bad = true
			return nil
		}
	}
	p.bad = true
	return nil
}

// str is quoted without the quotes.
func (p *acctScanner) str(key []byte) []byte {
	q := p.quoted(key)
	if p.bad {
		return nil
	}
	return q[1 : len(q)-1]
}

// amount consumes a currency.Amount field, which must parse.
func (p *acctScanner) amount(key []byte) {
	s := p.str(key)
	var a currency.Amount
	if !p.bad && a.UnmarshalText(s) != nil {
		p.bad = true
	}
}

// optional consumes lit if it comes next.
func (p *acctScanner) optional(lit []byte) bool {
	if p.bad || !bytes.HasPrefix(p.b, lit) {
		return false
	}
	p.b = p.b[len(lit):]
	return true
}
