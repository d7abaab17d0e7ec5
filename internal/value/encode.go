package value

import (
	"encoding/binary"
	"fmt"
	"math"
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
	if len(buf) == 0 {
		return Null, 0, fmt.Errorf("value: decode on empty buffer")
	}
	switch buf[0] {
	case tagNull:
		return Null, 1, nil
	case tagInt:
		if len(buf) < 9 {
			return Null, 0, fmt.Errorf("value: short int encoding (%d bytes)", len(buf))
		}
		return Int(int64(binary.BigEndian.Uint64(buf[1:9]))), 9, nil
	case tagFloat:
		if len(buf) < 9 {
			return Null, 0, fmt.Errorf("value: short float encoding (%d bytes)", len(buf))
		}
		return Float(math.Float64frombits(binary.BigEndian.Uint64(buf[1:9]))), 9, nil
	case tagString:
		if len(buf) < 5 {
			return Null, 0, fmt.Errorf("value: short string header (%d bytes)", len(buf))
		}
		n := int(binary.BigEndian.Uint32(buf[1:5]))
		if len(buf) < 5+n {
			return Null, 0, fmt.Errorf("value: short string payload (want %d, have %d)", n, len(buf)-5)
		}
		return String(string(buf[5 : 5+n])), 5 + n, nil
	default:
		return Null, 0, fmt.Errorf("value: unknown tag %q", buf[0])
	}
}

// EncodeRow appends the encodings of all values in row to dst.
func EncodeRow(dst []byte, row []Value) []byte {
	for _, v := range row {
		dst = v.AppendEncode(dst)
	}
	return dst
}

// DecodeRowPrefix decodes exactly n values from the front of buf, returning
// the row and the number of bytes consumed. Unlike DecodeRow it permits
// trailing bytes, so several rows can be packed into one wire frame and
// peeled off one at a time.
func DecodeRowPrefix(buf []byte, n int) ([]Value, int, error) {
	row := make([]Value, 0, n)
	used := 0
	for i := 0; i < n; i++ {
		v, u, err := Decode(buf[used:])
		if err != nil {
			return nil, 0, fmt.Errorf("value: column %d: %w", i, err)
		}
		row = append(row, v)
		used += u
	}
	return row, used, nil
}

// DecodeRow decodes exactly n values from buf. It returns an error if buf
// holds fewer than n encodings or has trailing bytes.
func DecodeRow(buf []byte, n int) ([]Value, error) {
	row, used, err := DecodeRowPrefix(buf, n)
	if err != nil {
		return nil, err
	}
	if used != len(buf) {
		return nil, fmt.Errorf("value: %d trailing bytes after %d columns", len(buf)-used, n)
	}
	return row, nil
}
