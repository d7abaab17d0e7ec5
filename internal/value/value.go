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
	"encoding/binary"
	"fmt"
	"math"
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

// numeric reports whether the value is an int or float.
func (v Value) numeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// Compare defines the total order used by the engine's ORDER BY and by the
// tagger's k-way merge: NULL < every non-null; numerics compare by value
// (ints and floats are mutually comparable); strings compare
// lexicographically; across non-comparable kinds, the kind tag breaks the
// tie so the order stays total.
func Compare(a, b Value) int {
	if a.kind == KindNull || b.kind == KindNull {
		switch {
		case a.kind == KindNull && b.kind == KindNull:
			return 0
		case a.kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	if a.numeric() && b.numeric() {
		if a.kind == KindInt && b.kind == KindInt {
			switch {
			case a.i < b.i:
				return -1
			case a.i > b.i:
				return 1
			default:
				return 0
			}
		}
		af, bf := a.AsFloat(), b.AsFloat()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	if a.kind == KindString && b.kind == KindString {
		return strings.Compare(a.s, b.s)
	}
	// Incomparable kinds: order by kind tag to keep the order total.
	switch {
	case a.kind < b.kind:
		return -1
	case a.kind > b.kind:
		return 1
	default:
		return 0
	}
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
	if a.kind == KindNull && b.kind == KindNull {
		return true
	}
	if a.kind == KindNull || b.kind == KindNull {
		return false
	}
	return Compare(a, b) == 0
}

// HashKey returns a string that is equal for equal values and distinct for
// distinct values, suitable as a map key in hash joins. NULL gets a key that
// never matches (callers must exclude NULLs per SQL join semantics before
// probing, and the engine does).
func (v Value) HashKey() string {
	return string(v.AppendHashKey(nil))
}

// AppendHashKey appends the HashKey bytes of v to dst and returns the
// extended slice. Hot paths (hash joins, distinct counting) build composite
// keys into a reusable scratch buffer with it and probe maps through the
// allocation-free map[string(buf)] form instead of materializing a string
// per row.
func (v Value) AppendHashKey(dst []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(dst, 0, 'N')
	case KindInt:
		dst = append(dst, 0, 'I')
		return strconv.AppendInt(dst, v.i, 10)
	case KindFloat:
		// Normalize integral floats to the int representation so 1 and 1.0
		// hash identically, matching Compare.
		f := v.float()
		if f == math.Trunc(f) && !math.IsInf(f, 0) && math.Abs(f) < 1e18 {
			dst = append(dst, 0, 'I')
			return strconv.AppendInt(dst, int64(f), 10)
		}
		dst = append(dst, 0, 'F')
		return strconv.AppendFloat(dst, f, 'b', -1, 64)
	case KindString:
		dst = append(dst, 0, 'S')
		return append(dst, v.s...)
	}
	return append(dst, 0, '?')
}

// AppendKey appends an order-preserving encoding of v to dst: on values
// that are not floats, bytes.Compare of two encodings has the sign of
// Compare, and since no encoding is a prefix of another, the same holds
// for keys encoded value after value and compared lexicographically.
//
//	NULL:   0x00
//	int:    0x01, then 8 big-endian bytes with the sign bit flipped
//	string: 0x03, then its bytes with each 0x00 written as 0x00 0xFF,
//	        then the terminator 0x00 0x01
//
// The tag bytes follow the Kind order, as Compare's order across kinds
// does. A float has no such encoding that also keeps Compare's mixing of
// ints and floats, -0 and NaN, so AppendKey returns dst unchanged and false
// for it, and the caller compares that key with Compare.
func AppendKey(dst []byte, v Value) ([]byte, bool) {
	switch v.kind {
	case KindNull:
		return append(dst, 0x00), true
	case KindInt:
		dst = append(dst, 0x01)
		return binary.BigEndian.AppendUint64(dst, uint64(v.i)^(1<<63)), true
	case KindString:
		dst = append(dst, 0x03)
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
		return append(dst, 0x00, 0x01), true
	}
	return dst, false
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
