package workload

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"bufsim/internal/units"
)

// jsonFlowRecord is one element of the JSON trace form: a start offset
// (either a duration string like "1.5s" or a bare number of seconds)
// and a size in segments.
type jsonFlowRecord struct {
	Start json.RawMessage `json:"start"`
	Size  int64           `json:"size"`
}

// ReadFlows reads a recorded flow trace in either supported encoding,
// sniffing the format from the first non-space byte:
//
//   - JSON — an array of {"start": "1.5s", "size": 30} records, where
//     "start" is a duration string in the package's notation or a bare
//     number of seconds;
//   - CSV — the two-column start_seconds,size_segments form ('#'
//     comments and a header line tolerated).
//
// In both formats the decoded records must pass ValidateFlows: ordered
// by start time, no negative start, every size positive.
func ReadFlows(r io.Reader) ([]FlowSpec, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var specs []FlowSpec
	if first := firstByte(data); first == '[' || first == '{' {
		specs, err = readFlowsJSON(data)
	} else {
		specs, err = parseTraceCSV(bytes.NewReader(data))
	}
	if err != nil {
		return nil, err
	}
	return specs, ValidateFlows(specs)
}

// parseTraceCSV scans the two-column CSV trace form
//
//	start_seconds,size_segments
//
// (comments starting with '#' and blank lines are skipped; a header line
// is tolerated).
func parseTraceCSV(r io.Reader) ([]FlowSpec, error) {
	var specs []FlowSpec
	sc := bufio.NewScanner(r)
	line := 0
	sawRow := false
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) != 2 {
			return nil, fmt.Errorf("workload: trace line %d: want 2 fields, got %d", line, len(parts))
		}
		start, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
		if err != nil {
			if !sawRow {
				continue // a header row like "start_seconds,size_segments"
			}
			return nil, fmt.Errorf("workload: trace line %d: bad start: %v", line, err)
		}
		sawRow = true
		size, err := strconv.ParseInt(strings.TrimSpace(parts[1]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("workload: trace line %d: bad size: %v", line, err)
		}
		if math.IsNaN(start) || math.IsInf(start, 0) {
			return nil, fmt.Errorf("workload: trace line %d: start %v is not finite", line, start)
		}
		specs = append(specs, FlowSpec{
			Start: units.DurationFromSeconds(start),
			Size:  size,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return specs, nil
}

// firstByte returns the first non-whitespace byte, or 0 if none.
func firstByte(data []byte) byte {
	if t := bytes.TrimLeft(data, " \t\r\n"); len(t) > 0 {
		return t[0]
	}
	return 0
}

func readFlowsJSON(data []byte) ([]FlowSpec, error) {
	var raw []jsonFlowRecord
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&raw); err != nil {
		return nil, fmt.Errorf("workload: JSON trace: %v", err)
	}
	specs := make([]FlowSpec, 0, len(raw))
	for i, rec := range raw {
		start, err := parseJSONStart(rec.Start)
		if err != nil {
			return nil, fmt.Errorf("workload: JSON trace record %d: %v", i, err)
		}
		specs = append(specs, FlowSpec{Start: start, Size: rec.Size})
	}
	return specs, nil
}

// parseJSONStart accepts "100ms"-style duration strings and bare
// numbers of seconds.
func parseJSONStart(raw json.RawMessage) (units.Duration, error) {
	if len(raw) == 0 {
		return 0, fmt.Errorf(`missing "start"`)
	}
	var s string
	if err := json.Unmarshal(raw, &s); err == nil {
		return units.ParseDuration(s)
	}
	secs, err := strconv.ParseFloat(string(bytes.TrimSpace(raw)), 64)
	if err != nil {
		return 0, fmt.Errorf(`"start" must be a duration string or a number of seconds, got %s`, raw)
	}
	return units.DurationFromSeconds(secs), nil
}
