package table

import (
	"encoding/csv"
	"fmt"
	"io"

	"silkroute/internal/value"
)

// WriteCSV writes the table as CSV with a header row of column names.
// String values that look numeric round-trip correctly because ReadCSV
// types fields from the relation schema, not by inference.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Rel.ColumnNames()); err != nil {
		return fmt.Errorf("table %s: write header: %w", t.Rel.Name, err)
	}
	record := make([]string, len(t.Rel.Columns))
	for i := 0; i < t.Len(); i++ {
		for c := range record {
			record[c] = t.cols[c][i].Text()
		}
		if err := cw.Write(record); err != nil {
			return fmt.Errorf("table %s: write row %d: %w", t.Rel.Name, i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV loads rows from CSV into the table. The header row must match the
// relation's column names in order. Fields are typed by the relation
// schema; empty fields become NULL.
func (t *Table) ReadCSV(r io.Reader) error {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return fmt.Errorf("table %s: read header: %w", t.Rel.Name, err)
	}
	names := t.Rel.ColumnNames()
	if len(header) != len(names) {
		return fmt.Errorf("table %s: header has %d columns, relation has %d", t.Rel.Name, len(header), len(names))
	}
	for i := range header {
		if header[i] != names[i] {
			return fmt.Errorf("table %s: header column %d is %q, want %q", t.Rel.Name, i, header[i], names[i])
		}
	}
	row := make(Row, len(names)) // Insert copies the values out, so one row serves every line
	for line := 2; ; line++ {
		record, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("table %s: line %d: %w", t.Rel.Name, line, err)
		}
		for c, field := range record {
			row[c], err = typedParse(field, t.Rel.Columns[c].Type)
			if err != nil {
				return fmt.Errorf("table %s: line %d, column %s: %w", t.Rel.Name, line, names[c], err)
			}
		}
		if err := t.Insert(row); err != nil {
			return err
		}
	}
}

// typedParse converts a CSV field to a value of the column's declared type.
func typedParse(field string, kind value.Kind) (value.Value, error) {
	if field == "" {
		return value.Null, nil
	}
	v := value.Parse(field)
	switch kind {
	case value.KindInt:
		if v.Kind() != value.KindInt {
			return value.Null, fmt.Errorf("cannot parse %q as INTEGER", field)
		}
		return v, nil
	case value.KindFloat:
		switch v.Kind() {
		case value.KindFloat:
			return v, nil
		case value.KindInt:
			return value.Float(float64(v.AsInt())), nil
		default:
			return value.Null, fmt.Errorf("cannot parse %q as FLOAT", field)
		}
	case value.KindString:
		return value.String(field), nil
	default:
		return v, nil
	}
}
