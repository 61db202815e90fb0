package scenario

import (
	"bytes"
	"encoding/json"
	"strconv"

	"wsnq/internal/series"
)

// recordDecoder decodes recording lines for Replay and ReplayWindow.
// Round records are all but a handful of the lines of every recording,
// and reflection-driven encoding/json decoding dominated replay time,
// so they take a reflection-free fast path that accepts exactly the
// compact shape the recorder writes: known keys in any order, plain
// ASCII strings, and JSON numbers that fit their field. Every other
// line — headers, run markers, escapes, nulls, unknown or differently
// cased keys, malformed input — falls back to encoding/json, so the
// fast path is only ever a shortcut to the same result
// (FuzzDecodeRecord checks the two against each other).
type recordDecoder struct {
	lastKey string      // the previous round record's key, reused when equal
	rec     roundRecord // the fast path's record, reused line after line
}

// decode fills the zero record rec from line. A round record decoded
// on the fast path is only valid until the next call.
func (d *recordDecoder) decode(line []byte, rec *fileRecord) error {
	d.rec = roundRecord{}
	if d.decodeRound(line, &d.rec) {
		rec.Round = &d.rec
		return nil
	}
	return json.Unmarshal(line, rec)
}

// decodeRound is the fast path: it reports whether line is a
// well-formed {"round":{...}} record it could decode completely.
//
// The scanners below are plain functions over (line, position) pairs
// that read each byte of the line about once and skip over keys with
// bytes.IndexByte. Per-byte reads are what the race detector charges
// for, and the scenario gate's replay-speed test also runs under it.
func (d *recordDecoder) decodeRound(b []byte, rr *roundRecord) bool {
	i, empty, ok := openObject(b, 0)
	if !ok || empty {
		return false
	}
	for more := true; more; {
		var key []byte
		if key, i, ok = member(b, i); !ok || string(key) != "round" {
			return false
		}
		if i, ok = d.roundObject(b, i, rr); !ok {
			return false
		}
		if i, more, ok = endMember(b, i); !ok {
			return false
		}
	}
	_, i = peek(b, i)
	return i == len(b)
}

// roundObject decodes the round record object starting at i.
func (d *recordDecoder) roundObject(b []byte, i int, rr *roundRecord) (int, bool) {
	i, empty, ok := openObject(b, i)
	if !ok || empty {
		return i, ok
	}
	for more := true; more; {
		var key []byte
		if key, i, ok = member(b, i); !ok {
			return 0, false
		}
		switch string(key) {
		case "key":
			i, ok = d.keyValue(b, i, &rr.Key)
		case "answer":
			i, ok = intField(b, i, &rr.Answer)
		case "k":
			i, ok = intField(b, i, &rr.K)
		case "rank_err":
			i, ok = intField(b, i, &rr.RankErr)
		case "point":
			i, ok = pointObject(b, i, &rr.Point)
		default:
			ok = false
		}
		if !ok {
			return 0, false
		}
		if i, more, ok = endMember(b, i); !ok {
			return 0, false
		}
	}
	return i, true
}

// keyValue decodes the record key, reusing the previous record's key
// string when the bytes are the same, which they almost always are.
func (d *recordDecoder) keyValue(b []byte, i int, dst *string) (int, bool) {
	c, j := peek(b, i)
	if c == '"' && len(b)-j > len(d.lastKey)+1 && string(b[j+1:j+1+len(d.lastKey)]) == d.lastKey && b[j+1+len(d.lastKey)] == '"' {
		*dst = d.lastKey
		return j + len(d.lastKey) + 2, true
	}
	v, i, ok := scanString(b, i)
	if !ok {
		return 0, false
	}
	d.lastKey = string(v)
	*dst = d.lastKey
	return i, true
}

// pointObject decodes a series.Point object starting at i.
func pointObject(b []byte, i int, p *series.Point) (int, bool) {
	i, empty, ok := openObject(b, i)
	if !ok || empty {
		return i, ok
	}
	for more := true; more; {
		var key []byte
		if key, i, ok = member(b, i); !ok {
			return 0, false
		}
		switch string(key) {
		case "round":
			i, ok = intField(b, i, &p.Round)
		case "span":
			i, ok = intField(b, i, &p.Span)
		case "frames":
			i, ok = intField(b, i, &p.Frames)
		case "messages":
			i, ok = intField(b, i, &p.Messages)
		case "joules":
			i, ok = floatField(b, i, &p.Joules)
		case "rank_error":
			i, ok = intField(b, i, &p.RankError)
		case "refines":
			i, ok = intField(b, i, &p.Refines)
		case "retries":
			i, ok = intField(b, i, &p.Retries)
		case "orphans":
			i, ok = intField(b, i, &p.Orphans)
		case "validation_bits":
			i, ok = intField(b, i, &p.ValidationBits)
		case "refinement_bits":
			i, ok = intField(b, i, &p.RefinementBits)
		case "shipping_bits":
			i, ok = intField(b, i, &p.ShippingBits)
		case "other_bits":
			i, ok = intField(b, i, &p.OtherBits)
		case "hot_joules":
			i, ok = floatField(b, i, &p.HotJoules)
		case "deficit":
			i, ok = intField(b, i, &p.Deficit)
		case "staleness":
			i, ok = intField(b, i, &p.Staleness)
		case "step_ms":
			i, ok = floatField(b, i, &p.StepMs)
		case "slo_burn":
			i, ok = floatField(b, i, &p.SLOBurn)
		case "slo_spend":
			i, ok = floatField(b, i, &p.SLOSpend)
		case "adapts":
			i, ok = intField(b, i, &p.Adapts)
		case "heap_live_bytes":
			i, ok = int64Field(b, i, &p.HeapLiveBytes)
		case "goroutines":
			i, ok = intField(b, i, &p.Goroutines)
		case "gc_pause_ms":
			i, ok = floatField(b, i, &p.GCPauseMs)
		case "alloc_bytes":
			i, ok = int64Field(b, i, &p.AllocBytes)
		case "alloc_objects":
			i, ok = int64Field(b, i, &p.AllocObjects)
		default:
			ok = false
		}
		if !ok {
			return 0, false
		}
		if i, more, ok = endMember(b, i); !ok {
			return 0, false
		}
	}
	return i, true
}

// peek skips JSON whitespace and returns the first other byte and its
// position (0 and len(b) at the end of the line).
func peek(b []byte, i int) (byte, int) {
	for ; i < len(b); i++ {
		if c := b[i]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return c, i
		}
	}
	return 0, i
}

// openObject consumes '{' and reports whether '}' closes the object
// right away.
func openObject(b []byte, i int) (next int, empty, ok bool) {
	c, i := peek(b, i)
	if c != '{' {
		return 0, false, false
	}
	if c, j := peek(b, i+1); c == '}' {
		return j + 1, true, true
	}
	return i + 1, false, true
}

// member consumes an object key and the colon after it. The key is
// not checked for escapes: callers only accept keys equal to a plain
// field name, which a key with an escape or a non-ASCII byte never is.
func member(b []byte, i int) (key []byte, next int, ok bool) {
	c, i := peek(b, i)
	if c != '"' {
		return nil, 0, false
	}
	end := bytes.IndexByte(b[i+1:], '"')
	if end < 0 {
		return nil, 0, false
	}
	key = b[i+1 : i+1+end]
	if c, i = peek(b, i+2+end); c != ':' {
		return nil, 0, false
	}
	return key, i + 1, true
}

// endMember consumes the ',' (more members follow) or '}' after a
// member's value.
func endMember(b []byte, i int) (next int, more, ok bool) {
	switch c, i := peek(b, i); c {
	case ',':
		return i + 1, true, true
	case '}':
		return i + 1, false, true
	}
	return 0, false, false
}

// scanString scans a string of printable ASCII without escapes.
func scanString(b []byte, i int) (s []byte, next int, ok bool) {
	c, i := peek(b, i)
	if c != '"' {
		return nil, 0, false
	}
	i++
	end := bytes.IndexByte(b[i:], '"')
	if end < 0 {
		return nil, 0, false
	}
	s = b[i : i+end]
	for _, c := range s {
		if c == '\\' || c < 0x20 || c >= 0x80 {
			return nil, 0, false
		}
	}
	return s, i + end + 1, true
}

// scanNumber scans a JSON number; lit is nil if there is none. For an
// integer literal (no fraction, no exponent) of at most 18 digits it
// also returns the value, with small = true.
func scanNumber(b []byte, i int) (lit []byte, v int64, integer, small bool, next int) {
	_, i = peek(b, i)
	start := i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	digits := i
	if i < len(b) && b[i] == '0' {
		i++
	} else {
		for i < len(b) && b[i]-'0' <= 9 {
			v = v*10 + int64(b[i]-'0')
			i++
		}
		if i == digits {
			return nil, 0, false, false, 0
		}
	}
	small = i-digits <= 18
	integer = true
	if i < len(b) && b[i] == '.' {
		i++
		frac := i
		for i < len(b) && b[i]-'0' <= 9 {
			i++
		}
		if i == frac {
			return nil, 0, false, false, 0
		}
		integer = false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		exp := i
		for i < len(b) && b[i]-'0' <= 9 {
			i++
		}
		if i == exp {
			return nil, 0, false, false, 0
		}
		integer = false
	}
	if neg {
		v = -v
	}
	return b[start:i], v, integer, small, i
}

func int64Field(b []byte, i int, dst *int64) (int, bool) {
	lit, v, integer, small, i := scanNumber(b, i)
	if lit == nil || !integer {
		return 0, false
	}
	if !small {
		var err error
		if v, err = strconv.ParseInt(string(lit), 10, 64); err != nil {
			return 0, false
		}
	}
	*dst = v
	return i, true
}

func intField(b []byte, i int, dst *int) (int, bool) {
	var v int64
	i, ok := int64Field(b, i, &v)
	if !ok || int64(int(v)) != v {
		return 0, false
	}
	*dst = int(v)
	return i, true
}

// floatField parses exactly as encoding/json does for a float64 field.
func floatField(b []byte, i int, dst *float64) (int, bool) {
	lit, _, _, _, i := scanNumber(b, i)
	if lit == nil {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return 0, false
	}
	*dst = v
	return i, true
}
