package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

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
// In both formats records must be ordered by start time: a trace is a
// timeline, and an out-of-order row means a corrupted or mis-merged
// input, so ReadFlows reports it instead of silently resorting.
func ReadFlows(r io.Reader) ([]FlowSpec, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if first := firstByte(data); first == '[' || first == '{' {
		return readFlowsJSON(data)
	}
	return parseTraceCSV(bytes.NewReader(data))
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
	prev := units.Duration(-1)
	for i, rec := range raw {
		start, err := parseJSONStart(rec.Start)
		if err != nil {
			return nil, fmt.Errorf("workload: JSON trace record %d: %v", i, err)
		}
		if start < 0 {
			return nil, fmt.Errorf("workload: JSON trace record %d: negative start %s", i, start)
		}
		if rec.Size <= 0 {
			return nil, fmt.Errorf("workload: JSON trace record %d: size %d out of range", i, rec.Size)
		}
		if start < prev {
			return nil, fmt.Errorf("workload: JSON trace record %d: start %s precedes previous record (%s); flow records must be ordered by start time", i, start, prev)
		}
		prev = start
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
