package value

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// Wire encoding of a single value:
//
//	tag byte: 'N' null | 'I' int64 | 'F' float64 | 'S' string
//	int64/float64: 8 bytes big-endian
//	string: uint32 big-endian length, then bytes
//
// The encoding is deliberately uncompressed: the paper's "total time"
// includes JDBC bind and transfer costs that grow with tuple width, and a
// faithful reproduction must charge per column, nulls included.

const (
	tagNull   = 'N'
	tagInt    = 'I'
	tagFloat  = 'F'
	tagString = 'S'
)

// AppendEncode appends the wire encoding of v to dst and returns the
// extended slice.
func (v Value) AppendEncode(dst []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(dst, tagNull)
	case KindInt:
		dst = append(dst, tagInt)
		return binary.BigEndian.AppendUint64(dst, uint64(v.i))
	case KindFloat:
		dst = append(dst, tagFloat)
		return binary.BigEndian.AppendUint64(dst, uint64(v.i))
	case KindString:
		dst = append(dst, tagString)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(v.s)))
		return append(dst, v.s...)
	}
	return append(dst, tagNull)
}

// Decode reads one value from the front of buf, returning the value and the
// number of bytes consumed.
func Decode(buf []byte) (Value, int, error) {
	v, str, n, err := decodeHead(buf)
	if err == nil && v.kind == KindString {
		v.s = string(str)
	}
	return v, n, err
}

// decodeHead is the one per-tag decoder behind Decode and DecodeRows. It
// reads the value at the front of buf and returns it with the number of
// bytes its encoding takes; a string comes back as its kind alone, with its
// payload in str still aliasing buf, so each caller decides where the
// string's bytes live.
func decodeHead(buf []byte) (v Value, str []byte, n int, err error) {
	if len(buf) == 0 {
		return Null, nil, 0, fmt.Errorf("value: decode on empty buffer")
	}
	switch buf[0] {
	case tagNull:
		return Null, nil, 1, nil
	case tagInt, tagFloat:
		kind := KindInt
		if buf[0] == tagFloat {
			kind = KindFloat
		}
		if len(buf) < 9 {
			return Null, nil, 0, fmt.Errorf("value: short %v encoding (%d bytes)", kind, len(buf))
		}
		return Value{kind: kind, i: int64(binary.BigEndian.Uint64(buf[1:9]))}, nil, 9, nil
	case tagString:
		if len(buf) < 5 {
			return Null, nil, 0, fmt.Errorf("value: short string header (%d bytes)", len(buf))
		}
		n := uint64(binary.BigEndian.Uint32(buf[1:5]))
		if uint64(len(buf)-5) < n {
			return Null, nil, 0, fmt.Errorf("value: short string payload (want %d, have %d)", n, len(buf)-5)
		}
		return Value{kind: KindString}, buf[5 : 5+n], 5 + int(n), nil
	default:
		return Null, nil, 0, fmt.Errorf("value: unknown tag %q", buf[0])
	}
}

// EncodeRow appends the encodings of all values in row to dst.
func EncodeRow(dst []byte, row []Value) []byte {
	for _, v := range row {
		dst = v.AppendEncode(dst)
	}
	return dst
}

// DecodeRows decodes buf as whole rows of n values each, at most maxRows of
// them, into one slab: row i is slab[i*n : (i+1)*n]. Every string in the
// slab is a substring of one string holding only buf's string payloads, so
// a frame of rows costs two allocations however many rows and strings it
// holds, and a value kept from it pins at most those payloads, never buf.
//
// A validating first pass counts the values and sums the string payloads
// before anything is allocated: an encoding cut short, an unknown tag, a
// value count that is not a whole number of rows, or more than maxRows rows
// fails with nothing decoded. With n == 0 only an empty buf is whole rows.
func DecodeRows(buf []byte, n, maxRows int) ([]Value, error) {
	cols := max(n, 1) // for error positions and the whole-rows test
	count, strBytes := 0, 0
	for used := 0; used < len(buf); count++ {
		if count == n*maxRows {
			return nil, fmt.Errorf("value: more than %d values, the bound of %d rows of %d columns", count, maxRows, n)
		}
		_, str, u, err := decodeHead(buf[used:])
		if err != nil {
			return nil, fmt.Errorf("value: row %d column %d: %w", count/cols, count%cols, err)
		}
		used += u
		strBytes += len(str)
	}
	if count%cols != 0 {
		return nil, fmt.Errorf("value: %d values are not whole rows of %d columns", count, n)
	}
	if count == 0 {
		return nil, nil
	}
	slab := make([]Value, count)
	var blob strings.Builder
	blob.Grow(strBytes)
	for i, used := 0, 0; i < count; i++ {
		v, str, u, _ := decodeHead(buf[used:])
		if v.kind == KindString {
			// Park the payload length in the unused word until the blob
			// is complete.
			blob.Write(str)
			v.i = int64(len(str))
		}
		slab[i] = v
		used += u
	}
	all := blob.String()
	for i, off := 0, 0; i < count; i++ {
		if slab[i].kind == KindString {
			end := off + int(slab[i].i)
			slab[i] = String(all[off:end])
			off = end
		}
	}
	return slab, nil
}

// DecodeRow decodes exactly n values from buf. It returns an error if buf
// holds fewer than n encodings or has trailing bytes.
func DecodeRow(buf []byte, n int) ([]Value, error) {
	row, err := DecodeRows(buf, n, 1)
	if err == nil && len(row) != n {
		return nil, fmt.Errorf("value: %d bytes hold no row of %d columns", len(buf), n)
	}
	return row, err
}
