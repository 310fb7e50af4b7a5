package obs

import (
	"encoding/json"
	"errors"
	"math"
	"slices"
	"strconv"
)

// errNonFinite is appendEvent's error for a NaN or ±Inf value, which JSON
// cannot represent (encoding/json fails on it too).
var errNonFinite = errors.New("obs: non-finite value")

// eventEncoder writes events as the bytes json.NewEncoder(w).Encode(ev)
// would write, without reflection: fields in struct order, episode, data
// and labels omitted when empty, map keys sorted, floats in encoding/json's
// ES6 form and strings escaped as encoding/json escapes them (HTML
// characters included). keys is scratch for sorting, reused across events.
type eventEncoder struct {
	keys []string
}

// appendEvent appends ev's JSON line, newline included, to b. A NaN or
// ±Inf value makes it return errNonFinite and a partial line.
func (enc *eventEncoder) appendEvent(b []byte, ev *Event) ([]byte, error) {
	b = append(b, `{"type":`...)
	b = appendString(b, ev.Type)
	b = append(b, `,"seq":`...)
	b = strconv.AppendInt(b, ev.Seq, 10)
	b = append(b, `,"wall_ms":`...)
	b, ok := AppendFloat(b, ev.WallMS)
	if !ok {
		return b, errNonFinite
	}
	if ev.Episode != 0 {
		b = append(b, `,"episode":`...)
		b = strconv.AppendInt(b, int64(ev.Episode), 10)
	}
	if len(ev.Data) > 0 {
		b = append(b, `,"data":{`...)
		enc.keys = sortedKeys(enc.keys, ev.Data)
		for i, k := range enc.keys {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, k)
			b = append(b, ':')
			if b, ok = AppendFloat(b, ev.Data[k]); !ok {
				return b, errNonFinite
			}
		}
		b = append(b, '}')
	}
	if len(ev.Labels) > 0 {
		b = append(b, `,"labels":`...)
		if ev.labelsJSON != nil {
			b = append(b, ev.labelsJSON...)
		} else {
			b = enc.appendLabels(b, ev.Labels)
		}
	}
	return append(b, "}\n"...), nil
}

// appendLabels appends labels as a JSON object with sorted keys.
func (enc *eventEncoder) appendLabels(b []byte, labels map[string]string) []byte {
	enc.keys = sortedKeys(enc.keys, labels)
	b = append(b, '{')
	for i, k := range enc.keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, k)
		b = append(b, ':')
		b = appendString(b, labels[k])
	}
	return append(b, '}')
}

// sortedKeys returns m's keys in sorted order, reusing keys' storage.
func sortedKeys[V any](keys []string, m map[string]V) []string {
	keys = keys[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// encodeLabels is the labels object an emitter attaches to every event it
// writes, encoded once; nil for an empty label set.
func encodeLabels(labels map[string]string) []byte {
	if len(labels) == 0 {
		return nil
	}
	var enc eventEncoder
	return enc.appendLabels(nil, labels)
}

// AppendFloat appends f the way encoding/json writes a float64: the
// shortest 'f' form, or 'e' form with a one-digit negative exponent kept
// short (1e-7, not 1e-07) when |f| < 1e-6 or |f| ≥ 1e21. It reports false
// for NaN and ±Inf.
func AppendFloat(b []byte, f float64) ([]byte, bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

// appendString appends s as a JSON string. Printable ASCII other than the
// characters encoding/json escapes (quote, backslash and the HTML-unsafe
// <, > and &) is copied as is; any other string goes through json.Marshal,
// which handles control characters, invalid UTF-8 and U+2028/U+2029.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// finiteCopy returns a copy of ev without its non-finite values: a
// non-finite data value is dropped, a non-finite wall_ms becomes 0, and
// data gains "nonfinite" set to the number of values removed.
func finiteCopy(ev *Event) *Event {
	out := *ev
	n := 0
	if math.IsNaN(out.WallMS) || math.IsInf(out.WallMS, 0) {
		out.WallMS = 0
		n++
	}
	out.Data = make(map[string]float64, len(ev.Data)+1)
	for k, v := range ev.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			n++
			continue
		}
		out.Data[k] = v
	}
	out.Data["nonfinite"] = float64(n)
	return &out
}
