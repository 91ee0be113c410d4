package errlog

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"
)

// csvHeader is the stable column layout of the CSV encoding.
var csvHeader = []string{
	"time", "node", "dimm", "manufacturer", "type", "count",
	"rank", "bank", "row", "col", "scrub", "overtemp",
}

// WriteCSV encodes the log in a stable CSV format with a header row.
// Timestamps are RFC 3339 with nanoseconds.
func WriteCSV(w io.Writer, l *Log) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	rec := make([]string, len(csvHeader))
	for _, e := range l.Events {
		rec[0] = e.Time.Format(time.RFC3339Nano)
		rec[1] = strconv.Itoa(e.Node)
		rec[2] = strconv.Itoa(e.DIMM)
		rec[3] = e.Manufacturer.String()
		rec[4] = e.Type.String()
		rec[5] = strconv.Itoa(e.Count)
		rec[6] = strconv.Itoa(e.Rank)
		rec[7] = strconv.Itoa(e.Bank)
		rec[8] = strconv.Itoa(e.Row)
		rec[9] = strconv.Itoa(e.Col)
		rec[10] = strconv.FormatBool(e.Scrub)
		rec[11] = strconv.FormatBool(e.OverTemp)
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV decodes a log written by WriteCSV.
func ReadCSV(r io.Reader) (*Log, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("errlog: reading header: %w", err)
	}
	if len(header) != len(csvHeader) {
		return nil, fmt.Errorf("errlog: header has %d columns, want %d", len(header), len(csvHeader))
	}
	l := &Log{}
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("errlog: line %d: %w", line, err)
		}
		e, err := parseRecord(rec)
		if err != nil {
			return nil, fmt.Errorf("errlog: line %d: %w", line, err)
		}
		l.Events = append(l.Events, e)
	}
	return l, nil
}

func parseRecord(rec []string) (Event, error) {
	var e Event
	t, err := time.Parse(time.RFC3339Nano, rec[0])
	if err != nil {
		return e, fmt.Errorf("bad time %q: %w", rec[0], err)
	}
	e.Time = t
	ints := []struct {
		dst *int
		col int
	}{
		{&e.Node, 1}, {&e.DIMM, 2}, {&e.Count, 5},
		{&e.Rank, 6}, {&e.Bank, 7}, {&e.Row, 8}, {&e.Col, 9},
	}
	for _, f := range ints {
		v, err := strconv.Atoi(rec[f.col])
		if err != nil {
			return e, fmt.Errorf("bad %s %q: %w", csvHeader[f.col], rec[f.col], err)
		}
		*f.dst = v
	}
	m, err := ParseManufacturer(rec[3])
	if err != nil {
		return e, fmt.Errorf("bad manufacturer %q", rec[3])
	}
	e.Manufacturer = m
	switch rec[4] {
	case "CE":
		e.Type = CE
	case "UE":
		e.Type = UE
	case "UEW":
		e.Type = UEWarning
	case "BOOT":
		e.Type = Boot
	case "RETIRE":
		e.Type = Retirement
	default:
		return e, fmt.Errorf("bad event type %q", rec[4])
	}
	if e.Scrub, err = strconv.ParseBool(rec[10]); err != nil {
		return e, fmt.Errorf("bad scrub %q: %w", rec[10], err)
	}
	if e.OverTemp, err = strconv.ParseBool(rec[11]); err != nil {
		return e, fmt.Errorf("bad overtemp %q: %w", rec[11], err)
	}
	return e, nil
}
