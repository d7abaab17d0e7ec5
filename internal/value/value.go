// Package value implements the typed, nullable scalar values that flow
// through every layer of SilkRoute: the relational engine, the wire
// protocol, the partitioned tuple streams, and the XML tagger.
//
// A Value is a small immutable struct. The zero Value is NULL, which makes
// padded outer-union tuples cheap to construct: extending a row with zero
// Values is exactly the SQL "null as col" padding the paper's unified plans
// require.
package value

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"strconv"
	"strings"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// The four kinds of values the SQL subset manipulates. Null sorts before
// every non-null value, mirroring the "NULLS FIRST" behaviour the paper's
// structural sort relies on (absent optional children sort before present
// ones, which keeps parents adjacent to their children in document order).
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "VARCHAR"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is one typed nullable scalar. The zero value is NULL. Ints and
// floats share one payload word, so a Value is 32 bytes: every row the
// engine, the wire and the tagger hold is an array of them.
type Value struct {
	kind Kind
	i    int64 // an int, or a float's IEEE 754 bits
	s    string
}

// Null is the SQL NULL value.
var Null = Value{}

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// Float returns a floating-point value.
func Float(f float64) Value { return Value{kind: KindFloat, i: int64(math.Float64bits(f))} }

// float returns a float value's payload.
func (v Value) float() float64 { return math.Float64frombits(uint64(v.i)) }

// String returns a string value.
func String(s string) Value { return Value{kind: KindString, s: s} }

// Bool returns an integer-encoded boolean (1 or 0); the SQL subset has no
// native boolean column type.
func Bool(b bool) Value {
	if b {
		return Int(1)
	}
	return Int(0)
}

// Kind reports the value's dynamic type.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsInt returns the integer payload. It panics on non-integer values so
// that type-confusion bugs surface immediately rather than as silent zeros.
func (v Value) AsInt() int64 {
	if v.kind != KindInt {
		panic(fmt.Sprintf("value: AsInt on %s", v.kind))
	}
	return v.i
}

// AsFloat returns the numeric payload widened to float64. Integers widen;
// other kinds panic.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindFloat:
		return v.float()
	case KindInt:
		return float64(v.i)
	}
	panic(fmt.Sprintf("value: AsFloat on %s", v.kind))
}

// AsString returns the string payload. It panics on non-string values.
func (v Value) AsString() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("value: AsString on %s", v.kind))
	}
	return v.s
}

// Text renders the value the way the XML tagger emits it: NULL becomes the
// empty string, numbers use their shortest exact representation.
func (v Value) Text() string {
	switch v.kind {
	case KindNull:
		return ""
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.float(), 'g', -1, 64)
	case KindString:
		return v.s
	}
	return ""
}

// AppendText appends Text's bytes to dst and returns the extended slice,
// so the tagger can render a value into its output buffer without a string
// per value.
func (v Value) AppendText(dst []byte) []byte {
	switch v.kind {
	case KindInt:
		return strconv.AppendInt(dst, v.i, 10)
	case KindFloat:
		return strconv.AppendFloat(dst, v.float(), 'g', -1, 64)
	case KindString:
		return append(dst, v.s...)
	}
	return dst
}

// String implements fmt.Stringer with a SQL-literal flavour, used by plan
// and row debugging output.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.float(), 'g', -1, 64)
	case KindString:
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	}
	return "?"
}

// rank orders the kinds Compare tells apart: NULL, then numbers, ints and
// floats alike, then strings.
var rank = [...]int{KindNull: 0, KindInt: 1, KindFloat: 1, KindString: 2}

// Compare defines the one total order of values. The engine's ORDER BY
// and its joins' and filters' equality, the shard merge and the tagger's
// merge all follow it, and AppendKey's bytes encode it. NULL sorts before
// every number and numbers before every string; strings compare bytewise.
// Numbers compare by exact value, ints and floats alike: a float equals
// an int only when it is integral and exactly that int, -0 equals 0, and
// NaN equals only NaN and sorts above every other number.
func Compare(a, b Value) int {
	if a.kind == b.kind {
		switch a.kind {
		case KindInt:
			return cmp.Compare(a.i, b.i)
		case KindString:
			return strings.Compare(a.s, b.s)
		case KindFloat:
			// cmp.Compare puts NaN below every float; negating both
			// sides and swapping them puts it above, and keeps -0 = 0.
			return cmp.Compare(-b.float(), -a.float())
		}
		return 0 // both NULL
	}
	if ra, rb := rank[a.kind], rank[b.kind]; ra != rb {
		return cmp.Compare(ra, rb)
	}
	if a.kind == KindInt {
		return compareIntFloat(a.i, b.float())
	}
	return -compareIntFloat(b.i, a.float())
}

// compareIntFloat compares i with f exactly, without rounding i to a float.
func compareIntFloat(i int64, f float64) int {
	switch {
	case f != f || f >= 0x1p63: // NaN, or above every int
		return -1
	case f < -0x1p63:
		return 1
	}
	fl := math.Floor(f)
	if c := cmp.Compare(i, int64(fl)); c != 0 || fl == f {
		return c
	}
	return -1 // f lies strictly between i and i+1
}

// Equal reports SQL equality semantics for joins and filters: NULL never
// equals anything, including NULL.
func Equal(a, b Value) bool {
	if a.kind == KindNull || b.kind == KindNull {
		return false
	}
	return Compare(a, b) == 0
}

// Identical reports whether two values are the same value, treating NULL as
// identical to NULL. The tagger uses this to detect group boundaries, where
// two absent optional children must compare as the same group.
func Identical(a, b Value) bool {
	return Compare(a, b) == 0
}

// AppendKey appends v's key to dst, the one byte encoding of Compare's
// order: bytes.Compare of two keys has the sign of Compare, and since no
// key is a prefix of another, the same holds for keys written value after
// value and compared lexicographically. Equal values, and only they, have
// equal keys, so the tagger's merge, distinct counts and shard placement
// key on it as well. The hash join keys on Hash instead, which needs no
// bytes written.
//
//	NULL:   0x00
//	number: 0x01 and the float's 8 order bytes, below -2^63 (-Inf too)
//	        0x02 and its floor in the int form, then 0x00 if the value
//	             is integral, else 0x01 and the float's 8 order bytes,
//	             in [-2^63, 2^63)
//	        0x03 and the float's 8 order bytes, at or above 2^63 (+Inf too)
//	        0x04, NaN
//	string: 0x05, then its bytes with each 0x00 written as 0x00 0xFF,
//	        then the terminator 0x00 0x01
//
// The int form is a length byte, 9+k for i >= 0 and 8-k for i < 0, and
// then the k low-order bytes of i that are not all 0x00 (all 0xFF for a
// negative i), big-endian: a longer int lies farther from zero. A float's
// order bytes are its IEEE 754 bits with the sign bit flipped, or with
// every bit flipped when negative.
func AppendKey(dst []byte, v Value) []byte {
	switch v.kind {
	case KindInt:
		return appendKeyInt(dst, v.i)
	case KindNull:
		return append(dst, 0x00)
	case KindString:
		dst = append(dst, 0x05)
		s := v.s
		for {
			i := strings.IndexByte(s, 0)
			if i < 0 {
				break
			}
			dst = append(dst, s[:i+1]...)
			dst = append(dst, 0xFF)
			s = s[i+1:]
		}
		dst = append(dst, s...)
		return append(dst, 0x00, 0x01)
	}
	f := v.float()
	switch {
	case f != f:
		return append(dst, 0x04)
	case f < -0x1p63:
		return appendKeyFloat(append(dst, 0x01), f)
	case f >= 0x1p63:
		return appendKeyFloat(append(dst, 0x03), f)
	}
	fl := math.Floor(f)
	dst = appendKeyInt(dst, int64(fl))
	if fl == f {
		return dst
	}
	dst[len(dst)-1] = 0x01 // not integral
	return appendKeyFloat(dst, f)
}

// stringSeed keys Hash's string hashing, one seed per process.
var stringSeed = maphash.MakeSeed()

// Hash returns a hash of v, mixed into seed, for hash tables keyed by
// Compare's equality: values Compare calls equal hash alike. An int, and
// an integral float in [-2^63, 2^63), hash as that int, so -0 hashes as 0
// and 2.0 as 2; every NaN hashes alike; any other float hashes its bits;
// a string hashes with hash/maphash under a per-process seed. A composite
// key hashes column after column, each hash the next column's seed.
// ok is false for NULL, which equals nothing.
func Hash(v Value, seed uint64) (h uint64, ok bool) {
	switch v.kind {
	case KindNull:
		return 0, false
	case KindInt:
		return mix(seed, uint64(v.i)), true
	case KindString:
		return mix(seed^saltString, maphash.String(stringSeed, v.s)), true
	}
	f := v.float()
	switch {
	case f != f:
		return mix(seed^saltNaN, 0), true
	case f >= -0x1p63 && f < 0x1p63 && f == math.Trunc(f):
		return mix(seed, uint64(int64(f))), true
	}
	return mix(seed^saltFloat, uint64(v.i)), true
}

// Hash's salts keep the kinds' hashes apart: equal hashes across kinds
// would cost only comparisons, never a wrong match.
const (
	saltString = 0x9e3779b97f4a7c15
	saltNaN    = 0xc2b2ae3d27d4eb4f
	saltFloat  = 0x165667b19e3779f9
)

// mix combines a seed and a 64-bit word into one hash: wyhash's multiply
// and fold.
func mix(seed, u uint64) uint64 {
	hi, lo := bits.Mul64(seed^0xa0761d6478bd642f, u^0xe7037ed1a0b428db)
	return hi ^ lo
}

// appendKeyInt appends AppendKey's key of the int i: 0x02, the int form,
// 0x00.
func appendKeyInt(dst []byte, i int64) []byte {
	sign := i >> 63                           // -1 when negative, else 0
	k := (bits.Len64(uint64(i^sign)) + 7) / 8 // significant bytes
	dst = append(dst, 0x02, byte(9+(k^int(sign))), 0, 0, 0, 0, 0, 0, 0, 0, 0)
	// Shifted up, i's k significant bytes lead, and a zero byte follows.
	binary.BigEndian.PutUint64(dst[len(dst)-9:], uint64(i)<<(64-8*k))
	return dst[:len(dst)-8+k]
}

// appendKeyFloat appends AppendKey's order bytes of f.
func appendKeyFloat(dst []byte, f float64) []byte {
	u := math.Float64bits(f)
	if f < 0 {
		u = ^u
	} else {
		u ^= 1 << 63
	}
	return binary.BigEndian.AppendUint64(dst, u)
}

// Parse converts a CSV/text field into a Value, inferring the narrowest
// type: empty string parses as NULL, then integer, then float, then string.
// The TPC-H loader and the CSV import path use it.
func Parse(s string) Value {
	if s == "" {
		return Null
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return Int(i)
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return Float(f)
	}
	return String(s)
}

// WireSize returns the number of bytes the value occupies in the wire
// protocol's row encoding (tag byte plus payload). Null values still cost a
// tag byte, which is what makes null-padded outer-union rows genuinely more
// expensive to transfer — the effect the paper measures.
func (v Value) WireSize() int {
	switch v.kind {
	case KindNull:
		return 1
	case KindInt, KindFloat:
		return 1 + 8
	case KindString:
		return 1 + 4 + len(v.s)
	}
	return 1
}
