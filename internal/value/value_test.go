package value

import (
	"bytes"
	"math"
	"slices"
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
	// NULL sorts first; ints and floats interleave by exact value, NaN
	// last among them; strings after numbers.
	vals := []Value{String("b"), Float(math.NaN()), Int(3), Null, Float(2.5), Float(math.Inf(-1)),
		Int(2), String("a"), Float(math.Inf(1)), Int(math.MinInt64)}
	sort.Slice(vals, func(i, j int) bool { return Compare(vals[i], vals[j]) < 0 })
	want := []Value{Null, Float(math.Inf(-1)), Int(math.MinInt64), Int(2), Float(2.5), Int(3),
		Float(math.Inf(1)), Float(math.NaN()), String("a"), String("b")}
	for i := range want {
		if vals[i].Kind() != want[i].Kind() || Compare(vals[i], want[i]) != 0 {
			t.Fatalf("sorted[%d] = %v, want %v (full: %v)", i, vals[i], want[i], vals)
		}
	}
}

func TestCompareMixedNumeric(t *testing.T) {
	nan := Float(math.NaN())
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(2), Float(2.0), 0},
		{Int(2), Float(2.5), -1},
		{Float(2.5), Int(2), 1},
		{Int(-1), Float(-0.5), -1},
		{Int(0), Float(math.Copysign(0, -1)), 0},
		// Exact, not through float64: 2^53+1 rounds to 2^53 as a float.
		{Float(1 << 53), Int(1<<53 + 1), -1},
		{Float(1e18), Int(1e18), 0},
		{Float(0x1p63), Int(math.MaxInt64), 1},
		{Float(-0x1p63), Int(math.MinInt64), 0},
		{Float(math.Inf(-1)), Int(math.MinInt64), -1},
		// NaN equals only NaN, whatever its payload, and sorts above
		// every other number.
		{nan, Int(1), 1},
		{nan, Float(math.Inf(1)), 1},
		{nan, Float(math.Float64frombits(0x7ff8000000000001)), 0},
		{nan, String(""), -1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := Compare(c.b, c.a); got != -c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.b, c.a, got, -c.want)
		}
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

// key returns v's AppendKey bytes as a string.
func key(v Value) string { return string(AppendKey(nil, v)) }

// TestKeyEqualityIsIdentity: two values have equal keys exactly when they
// are Identical, so NULL's key matches only NULL's, and an int and a
// float share a key only when they are equal.
func TestKeyEqualityIsIdentity(t *testing.T) {
	pool := []Value{Null, Int(0), Int(1), Int(2), Int(-1), Int(1<<53 + 1), Int(1e18),
		Float(0), Float(math.Copysign(0, -1)), Float(1), Float(1.5), Float(1 << 53), Float(1e18),
		Float(math.NaN()), Float(math.Float64frombits(0x7ff8000000000001)), Float(math.Inf(1)),
		String(""), String("N"), String("1"), String("a"), String("a\x00")}
	for _, a := range pool {
		for _, b := range pool {
			if id, same := Identical(a, b), key(a) == key(b); id != same {
				t.Errorf("Identical(%v, %v) = %v, but equal keys = %v", a, b, id, same)
			}
		}
	}
}

// TestHashKeyAgreesWithEquality: the hash join keys on AppendKey, so two
// non-NULL values must have equal keys exactly when they are Equal.
func TestHashKeyAgreesWithEquality(t *testing.T) {
	pool := []Value{Int(1), Int(2), Float(1), Float(1.5), String("1"), String("a"), Int(-1)}
	for _, a := range pool {
		for _, b := range pool {
			if eq, same := Equal(a, b), key(a) == key(b); eq != same {
				t.Errorf("Equal(%v,%v)=%v but key match=%v", a, b, eq, same)
			}
		}
	}
}

func TestHashKeyNullNeverMatches(t *testing.T) {
	// NULL's key must not collide with any value a query can produce, so a
	// join probe with a non-NULL value never meets a NULL build row.
	for _, v := range []Value{Int(0), Float(0), String(""), String("N")} {
		if key(v) == key(Null) {
			t.Errorf("NULL key collides with %v", v)
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

// TestDecodeRows: a buffer of whole rows decodes into one slab, in order,
// at two allocations (the slab and the string blob) however many rows and
// strings it holds; anything else fails with nothing decoded.
func TestDecodeRows(t *testing.T) {
	rows := [][]Value{
		{Int(1), String("USA"), Null},
		{Float(-0.5), String(""), String("Spain")},
		{Int(3), Null, String("ü✓")},
	}
	var enc []byte
	for _, r := range rows {
		enc = EncodeRow(enc, r)
	}
	slab, err := DecodeRows(nil, enc, 3, len(rows))
	if err != nil {
		t.Fatal(err)
	}
	if len(slab) != 9 {
		t.Fatalf("slab holds %d values, want 9", len(slab))
	}
	for i, r := range rows {
		for j, v := range r {
			if got := slab[i*3+j]; !Identical(got, v) || got.Kind() != v.Kind() {
				t.Errorf("row %d column %d: %v, want %v", i, j, got, v)
			}
		}
	}
	if got := testing.AllocsPerRun(10, func() { DecodeRows(nil, enc, 3, len(rows)) }); got != 2 {
		t.Errorf("DecodeRows allocated %v times, want 2 (slab and string blob)", got)
	}
	// A destination large enough is decoded into: only the string blob is
	// allocated, and the values are the same.
	dst := make([]Value, 0, 16)
	again, err := DecodeRows(dst, enc, 3, len(rows))
	if err != nil || &again[0] != &dst[:1][0] || !slices.EqualFunc(again, slab, Identical) {
		t.Errorf("DecodeRows into a large destination: %v, %v; want %v in its array", again, err, slab)
	}
	if got := testing.AllocsPerRun(10, func() { DecodeRows(dst, enc, 3, len(rows)) }); got != 1 {
		t.Errorf("DecodeRows into a large destination allocated %v times, want 1 (string blob)", got)
	}
	if got := testing.AllocsPerRun(10, func() { DecodeRows(dst[:0:8], enc, 3, len(rows)) }); got != 2 {
		t.Errorf("DecodeRows into a short destination allocated %v times, want 2", got)
	}

	row := EncodeRow(nil, rows[0])
	bad := []struct {
		name string
		buf  []byte
		n    int
	}{
		{"partial row", append(append([]byte(nil), row...), 'N'), 3},
		{"more rows than the bound", enc, 2},
		{"truncated value", enc[:len(enc)-1], 3},
		{"unknown tag in the last row", append(EncodeRow(nil, rows[0]), 'Z', 'N', 'N'), 3},
		{"bytes for zero columns", row, 0},
	}
	for _, c := range bad {
		if slab, err := DecodeRows(nil, c.buf, c.n, 2); err == nil {
			t.Errorf("%s: decoded %v, want an error", c.name, slab)
		}
	}
	if slab, err := DecodeRows(nil, nil, 3, 2); err != nil || len(slab) != 0 {
		t.Errorf("empty buffer: %v, %v; want no rows", slab, err)
	}
}

// FuzzDecodeRows: for any bytes and 0–8 columns, DecodeRows succeeds
// exactly when decoding value by value with Decode consumes the buffer in
// whole rows, at most fuzzMaxRows of them, and then yields the same values
// bit for bit (NaN payloads included).
func FuzzDecodeRows(f *testing.F) {
	const fuzzMaxRows = 4
	f.Add(EncodeRow(nil, []Value{Int(1), String("USA"), Null}), uint8(3))
	f.Add(EncodeRow(nil, []Value{Float(math.NaN()), String(""), Int(-1), Null}), uint8(2))
	f.Add([]byte{'N', 'N', 'N', 'N', 'N'}, uint8(1))
	f.Add([]byte{'S', 0, 0, 0, 9, 'x'}, uint8(1))
	f.Add([]byte{'Z'}, uint8(0))
	f.Fuzz(func(t *testing.T, buf []byte, cols uint8) {
		n := int(cols % 9)
		var want []Value
		ok := true
		for used := 0; used < len(buf); {
			v, u, err := Decode(buf[used:])
			if err != nil {
				ok = false
				break
			}
			want = append(want, v)
			used += u
		}
		if n == 0 {
			ok = ok && len(want) == 0
		} else {
			ok = ok && len(want)%n == 0 && len(want) <= n*fuzzMaxRows
		}
		got, err := DecodeRows(nil, buf, n, fuzzMaxRows)
		if (err == nil) != ok {
			t.Fatalf("DecodeRows(% x, %d) error = %v, value-by-value decode whole rows = %v", buf, n, err, ok)
		}
		if err != nil {
			return
		}
		if len(got) != len(want) {
			t.Fatalf("DecodeRows decoded %d values, Decode %d", len(got), len(want))
		}
		for i := range want {
			if got[i].kind != want[i].kind || got[i].i != want[i].i || got[i].s != want[i].s {
				t.Fatalf("value %d: DecodeRows %#v, Decode %#v", i, got[i], want[i])
			}
		}
		// Decoding into a used destination leaves nothing of its values.
		used := make([]Value, len(want)+1)
		for i := range used {
			used[i] = String("stale")
		}
		again, err := DecodeRows(used[:0], buf, n, fuzzMaxRows)
		if err != nil || !slices.EqualFunc(again, got, func(a, b Value) bool { return a.kind == b.kind && a.i == b.i && a.s == b.s }) {
			t.Fatalf("DecodeRows into a used destination: %#v, %v; want %#v", again, err, got)
		}
	})
}

// quickValue builds an arbitrary Value from generator-provided raw parts.
func quickValue(kind uint8, i int64, f float64, s string) Value {
	switch kind % 4 {
	case 0:
		return Null
	case 1:
		return Int(i)
	case 2:
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
		a := quickValue(k1, i1, float64(i1)/3, s1)
		b := quickValue(k2, i2, float64(i2)/3, s2)
		c := quickValue(k3, i3, float64(i3)/3, s3)
		if Compare(a, b) <= 0 && Compare(b, c) <= 0 {
			return Compare(a, c) <= 0
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickKeyEqualityIsIdentity holds TestKeyEqualityIsIdentity on
// generated pairs, and on each value beside its twin of the other numeric
// kind, which is Identical to it exactly when the conversion is exact.
func TestQuickKeyEqualityIsIdentity(t *testing.T) {
	twin := func(v Value) Value {
		switch v.Kind() {
		case KindInt:
			return Float(float64(v.i))
		case KindFloat:
			if f := v.float(); f >= -0x1p63 && f < 0x1p63 {
				return Int(int64(f))
			}
		}
		return v
	}
	prop := func(k1 uint8, i1 int64, f1 float64, s1 string, k2 uint8, i2 int64, f2 float64, s2 string) bool {
		a := quickValue(k1, i1, f1, s1)
		for _, b := range []Value{quickValue(k2, i2, f2, s2), twin(a)} {
			if Identical(a, b) != (key(a) == key(b)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// compareRows orders two rows lexicographically by Compare, a row that is
// a prefix of the other first.
func compareRows(a, b []Value) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if c := Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return len(a) - len(b)
}

// sign maps a comparison result to -1, 0 or 1.
func sign(c int) int {
	switch {
	case c < 0:
		return -1
	case c > 0:
		return 1
	}
	return 0
}

// FuzzKeyOrder holds AppendKey to Compare. Each fuzz input is two rows in
// the wire encoding; the first 1–4 values that decode form a row, so rows
// hold NULLs, ints, strings of any bytes and floats of any bits. On any two
// rows, bytes.Compare on the concatenated keys has the sign of the
// lexicographic Compare.
func FuzzKeyOrder(f *testing.F) {
	seeds := []Value{Int(math.MinInt64), Int(-1), Int(0), Int(math.MaxInt64),
		String(""), String("\x00"), String("a"), String("a\x00"), String("a\xff"), String("ab"),
		Float(math.NaN()), Float(math.Inf(1)), Float(math.Inf(-1)), Float(math.Copysign(0, -1)),
		Float(0.5), Float(-0.5), Float(1 << 53), Int(1<<53 + 1), Float(0x1p63), Float(-0x1p63), Float(2)}
	for _, a := range seeds {
		for _, b := range seeds {
			f.Add(EncodeRow(nil, []Value{a}), EncodeRow(nil, []Value{b}))
		}
	}
	f.Add(EncodeRow(nil, []Value{String("a"), Int(1)}), EncodeRow(nil, []Value{String("a\x00")}))
	f.Add(EncodeRow(nil, []Value{Int(1), Null}), EncodeRow(nil, []Value{Int(1)}))
	f.Add(EncodeRow(nil, []Value{Null, String("\x00\x01"), Int(-1), Null}), EncodeRow(nil, []Value{Null, String("\x00"), Int(7)}))
	f.Add(EncodeRow(nil, []Value{Int(1), Float(1)}), EncodeRow(nil, []Value{Int(1), Int(1)}))
	// A NULL key position before its extension, and before a constant.
	f.Add(EncodeRow(nil, []Value{Int(1), Null, Null}), EncodeRow(nil, []Value{Int(1), Int(2), Null}))
	f.Add(EncodeRow(nil, []Value{Int(1), Int(2), Null}), EncodeRow(nil, []Value{Int(1), Int(2), Int(0)}))
	row := func(buf []byte) []Value {
		var r []Value
		for len(buf) > 0 && len(r) < 4 {
			v, n, err := Decode(buf)
			if err != nil {
				break
			}
			r = append(r, v)
			buf = buf[n:]
		}
		return r
	}
	encode := func(r []Value) (k []byte) {
		for _, v := range r {
			k = AppendKey(k, v)
		}
		return k
	}
	f.Fuzz(func(t *testing.T, abuf, bbuf []byte) {
		a, b := row(abuf), row(bbuf)
		if len(a) == 0 || len(b) == 0 {
			return
		}
		ka, kb := encode(a), encode(b)
		if got, want := sign(bytes.Compare(ka, kb)), sign(compareRows(a, b)); got != want {
			t.Fatalf("rows %v and %v: bytes.Compare of % x and % x = %d, Compare = %d", a, b, ka, kb, got, want)
		}
	})
}
