package rxl

import (
	"errors"
	"testing"
)

func TestParseErrorsCarryOffsets(t *testing.T) {
	cases := []struct {
		src       string
		line, col int
	}{
		{"from Supplier $s\nwhere $s.name ^ 3\nconstruct <x/>", 2, 15},
		{"from Supplier $s\nconstruct <x>'unterminated", 2, 14},
	}
	for _, tc := range cases {
		_, err := Parse(tc.src)
		if err == nil {
			t.Fatalf("Parse(%q) succeeded", tc.src)
		}
		var perr *Error
		if !errors.As(err, &perr) {
			t.Fatalf("Parse(%q) error %T is not *rxl.Error", tc.src, err)
		}
		if perr.Offset < 0 {
			t.Fatalf("Parse(%q): error has no offset: %v", tc.src, perr)
		}
		line, col := LineCol(tc.src, perr.Offset)
		if line != tc.line || col != tc.col {
			t.Errorf("Parse(%q): position %d:%d, want %d:%d", tc.src, line, col, tc.line, tc.col)
		}
	}
}

func TestLineCol(t *testing.T) {
	src := "ab\ncde\n\nf"
	for _, tc := range []struct {
		offset, line, col int
	}{
		{0, 1, 1},
		{1, 1, 2},
		{2, 1, 3}, // the newline itself is still on line 1
		{3, 2, 1},
		{6, 2, 4},
		{7, 3, 1},
		{8, 4, 1},
		{99, 4, 2}, // past the end clamps to just past the last rune
	} {
		line, col := LineCol(src, tc.offset)
		if line != tc.line || col != tc.col {
			t.Errorf("LineCol(%d) = %d:%d, want %d:%d", tc.offset, line, col, tc.line, tc.col)
		}
	}
}

func TestEmptyQueryHasNoPosition(t *testing.T) {
	_, err := Parse("   \n  ")
	if err == nil {
		t.Fatal("Parse of blank source succeeded")
	}
	var perr *Error
	if !errors.As(err, &perr) {
		t.Fatalf("error %T is not *rxl.Error", err)
	}
	if perr.Offset >= 0 {
		t.Errorf("blank source error claims offset %d", perr.Offset)
	}
}
