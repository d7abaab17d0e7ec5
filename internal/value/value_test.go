package value

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull:   "NULL",
		KindInt:    "INTEGER",
		KindFloat:  "FLOAT",
		KindString: "VARCHAR",
		Kind(9):    "Kind(9)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if !Null.IsNull() {
		t.Error("Null.IsNull() = false")
	}
	if got := Int(42).AsInt(); got != 42 {
		t.Errorf("Int(42).AsInt() = %d", got)
	}
	if got := Float(2.5).AsFloat(); got != 2.5 {
		t.Errorf("Float(2.5).AsFloat() = %v", got)
	}
	if got := Int(7).AsFloat(); got != 7.0 {
		t.Errorf("Int(7).AsFloat() = %v, want widened 7.0", got)
	}
	if got := String("hi").AsString(); got != "hi" {
		t.Errorf("String(hi).AsString() = %q", got)
	}
	if Bool(true) != Int(1) || Bool(false) != Int(0) {
		t.Error("Bool encoding wrong")
	}
	var zero Value
	if !zero.IsNull() {
		t.Error("zero Value is not NULL")
	}
}

func TestAccessorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("AsInt on string", func() { String("x").AsInt() })
	mustPanic("AsString on int", func() { Int(1).AsString() })
	mustPanic("AsFloat on null", func() { Null.AsFloat() })
}

func TestText(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, ""},
		{Int(-3), "-3"},
		{Float(1.5), "1.5"},
		{String("plated brass"), "plated brass"},
	}
	for _, c := range cases {
		if got := c.v.Text(); got != c.want {
			t.Errorf("%v.Text() = %q, want %q", c.v, got, c.want)
		}
	}
}

// TestCompactLayout pins the 32-byte Value of 64-bit platforms (ints and
// floats share one payload word) and checks a float survives the bit
// round trip, sign of zero and NaN included.
func TestCompactLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); unsafe.Sizeof(uintptr(0)) == 8 && got != 32 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want 32", got)
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 1.5, -2.25, math.Inf(1), math.Inf(-1),
		math.MaxFloat64, math.SmallestNonzeroFloat64} {
		if got := Float(f).AsFloat(); got != f || math.Signbit(got) != math.Signbit(f) {
			t.Errorf("Float(%v).AsFloat() = %v", f, got)
		}
	}
	if got := Float(math.NaN()).AsFloat(); !math.IsNaN(got) {
		t.Errorf("Float(NaN).AsFloat() = %v", got)
	}
}

// TestAppendTextMatchesText holds the tagger's allocation-free rendering to
// the string one, byte for byte, and checks it appends rather than overwrites.
func TestAppendTextMatchesText(t *testing.T) {
	for _, v := range []Value{
		Null,
		Int(0), Int(-7), Int(math.MinInt64), Int(math.MaxInt64),
		Float(math.Copysign(0, -1)), Float(math.NaN()), Float(math.Inf(1)), Float(math.Inf(-1)),
		Float(1e21), Float(1e-7), Float(0.1),
		String(""), String("plated brass"), String("A & B <\"x\">\t\xff"),
	} {
		if got, want := string(v.AppendText(nil)), v.Text(); got != want {
			t.Errorf("%v.AppendText(nil) = %q, Text() = %q", v, got, want)
		}
		if got, want := string(v.AppendText([]byte("pre|"))), "pre|"+v.Text(); got != want {
			t.Errorf("%v.AppendText(prefix) = %q, want %q", v, got, want)
		}
	}
}

func TestStringLiteral(t *testing.T) {
	if got := String("O'Hare").String(); got != "'O''Hare'" {
		t.Errorf("quoting: got %q", got)
	}
	if got := Null.String(); got != "NULL" {
		t.Errorf("Null.String() = %q", got)
	}
}

func TestCompareTotalOrder(t *testing.T) {
	// NULL sorts first; ints and floats interleave by numeric value;
	// strings after numbers (kind tag order).
	vals := []Value{String("b"), Int(3), Null, Float(2.5), Int(2), String("a"), Float(3)}
	sort.Slice(vals, func(i, j int) bool { return Compare(vals[i], vals[j]) < 0 })
	want := []Value{Null, Int(2), Float(2.5), Int(3), Float(3), String("a"), String("b")}
	for i := range want {
		if Compare(vals[i], want[i]) != 0 || vals[i].Kind() != want[i].Kind() && !(vals[i].numeric() && want[i].numeric()) {
			t.Fatalf("sorted[%d] = %v, want %v (full: %v)", i, vals[i], want[i], vals)
		}
	}
}

func TestCompareMixedNumeric(t *testing.T) {
	if Compare(Int(2), Float(2.0)) != 0 {
		t.Error("Int(2) != Float(2.0)")
	}
	if Compare(Int(2), Float(2.5)) != -1 {
		t.Error("Int(2) should sort before Float(2.5)")
	}
	if Compare(Float(2.5), Int(2)) != 1 {
		t.Error("Float(2.5) should sort after Int(2)")
	}
}

func TestSQLEqualitySemantics(t *testing.T) {
	if Equal(Null, Null) {
		t.Error("NULL = NULL must be false in joins")
	}
	if Equal(Null, Int(1)) || Equal(Int(1), Null) {
		t.Error("NULL = x must be false")
	}
	if !Equal(Int(5), Int(5)) {
		t.Error("5 = 5 must hold")
	}
	if !Identical(Null, Null) {
		t.Error("Identical(NULL, NULL) must be true for group detection")
	}
	if Identical(Null, Int(0)) {
		t.Error("Identical(NULL, 0) must be false")
	}
	if !Identical(String("x"), String("x")) {
		t.Error("Identical on equal strings")
	}
}

func TestHashKeyAgreesWithEquality(t *testing.T) {
	pool := []Value{Int(1), Int(2), Float(1), Float(1.5), String("1"), String("a"), Int(-1)}
	for _, a := range pool {
		for _, b := range pool {
			eq := Equal(a, b)
			hk := a.HashKey() == b.HashKey()
			if eq != hk {
				t.Errorf("Equal(%v,%v)=%v but HashKey match=%v", a, b, eq, hk)
			}
		}
	}
}

func TestHashKeyNullNeverMatches(t *testing.T) {
	// NULL's hash key must not collide with any value a query can produce;
	// it maps to a reserved key the engine never probes with.
	for _, v := range []Value{Int(0), Float(0), String(""), String("N")} {
		if v.HashKey() == Null.HashKey() {
			t.Errorf("NULL hash key collides with %v", v)
		}
	}
}

func TestParse(t *testing.T) {
	cases := []struct {
		in   string
		want Value
	}{
		{"", Null},
		{"42", Int(42)},
		{"-7", Int(-7)},
		{"3.25", Float(3.25)},
		{"plated brass", String("plated brass")},
		{"12abc", String("12abc")},
	}
	for _, c := range cases {
		got := Parse(c.in)
		if got.Kind() != c.want.Kind() || !Identical(got, c.want) {
			t.Errorf("Parse(%q) = %v (%v), want %v", c.in, got, got.Kind(), c.want)
		}
	}
}

func TestWireSizeMatchesEncoding(t *testing.T) {
	vals := []Value{Null, Int(7), Float(math.Pi), String(""), String("hello world")}
	for _, v := range vals {
		enc := v.AppendEncode(nil)
		if len(enc) != v.WireSize() {
			t.Errorf("%v: WireSize=%d but encoding is %d bytes", v, v.WireSize(), len(enc))
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	vals := []Value{Null, Int(0), Int(-1 << 62), Float(-0.5), Float(math.Inf(1)), String(""), String("ünïcode ✓")}
	for _, v := range vals {
		enc := v.AppendEncode(nil)
		got, n, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode(%v): %v", v, err)
		}
		if n != len(enc) {
			t.Errorf("Decode(%v) consumed %d of %d bytes", v, n, len(enc))
		}
		if got.Kind() != v.Kind() || !Identical(got, v) {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	bad := [][]byte{
		{},                     // empty
		{'I', 0, 0},            // short int
		{'F', 0},               // short float
		{'S', 0, 0},            // short string header
		{'S', 0, 0, 0, 5, 'a'}, // short string payload
		{'Z'},                  // unknown tag
	}
	for _, b := range bad {
		if _, _, err := Decode(b); err == nil {
			t.Errorf("Decode(% x) succeeded, want error", b)
		}
	}
}

func TestRowRoundTrip(t *testing.T) {
	row := []Value{Int(1), Null, String("USA"), Float(904.00), Null}
	enc := EncodeRow(nil, row)
	dec, err := DecodeRow(enc, len(row))
	if err != nil {
		t.Fatal(err)
	}
	for i := range row {
		if !Identical(dec[i], row[i]) {
			t.Errorf("column %d: %v != %v", i, dec[i], row[i])
		}
	}
	if _, err := DecodeRow(enc, len(row)-1); err == nil {
		t.Error("DecodeRow with trailing bytes succeeded")
	}
	if _, err := DecodeRow(enc[:len(enc)-1], len(row)); err == nil {
		t.Error("DecodeRow with truncated buffer succeeded")
	}
}

// quickValue builds an arbitrary Value from generator-provided raw parts.
func quickValue(kind uint8, i int64, f float64, s string) Value {
	switch kind % 4 {
	case 0:
		return Null
	case 1:
		return Int(i)
	case 2:
		if math.IsNaN(f) {
			f = 0 // NaN breaks total-order laws by design of IEEE; exclude.
		}
		return Float(f)
	default:
		return String(s)
	}
}

func TestQuickEncodeDecodeIdentity(t *testing.T) {
	prop := func(kind uint8, i int64, f float64, s string) bool {
		v := quickValue(kind, i, f, s)
		got, n, err := Decode(v.AppendEncode(nil))
		return err == nil && n == v.WireSize() && Identical(got, v) && got.Kind() == v.Kind()
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickCompareAntisymmetric(t *testing.T) {
	prop := func(k1 uint8, i1 int64, f1 float64, s1 string, k2 uint8, i2 int64, f2 float64, s2 string) bool {
		a := quickValue(k1, i1, f1, s1)
		b := quickValue(k2, i2, f2, s2)
		return Compare(a, b) == -Compare(b, a)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickCompareTransitiveOnTriples(t *testing.T) {
	prop := func(k1, k2, k3 uint8, i1, i2, i3 int64, s1, s2, s3 string) bool {
		a := quickValue(k1, i1, 0, s1)
		b := quickValue(k2, i2, 0, s2)
		c := quickValue(k3, i3, 0, s3)
		if Compare(a, b) <= 0 && Compare(b, c) <= 0 {
			return Compare(a, c) <= 0
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickHashKeyConsistentWithEqual(t *testing.T) {
	prop := func(k1 uint8, i1 int64, f1 float64, s1 string, k2 uint8, i2 int64, f2 float64, s2 string) bool {
		a := quickValue(k1, i1, f1, s1)
		b := quickValue(k2, i2, f2, s2)
		if Equal(a, b) {
			return a.HashKey() == b.HashKey()
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
