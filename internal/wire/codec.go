package wire

import (
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"

	"ubiqos/internal/composer"
	"ubiqos/internal/qos"
)

// The hand-written halves of the codec. appendRequest writes a request
// line and appendResponse the start, stop and switch replies, each to the
// byte what a json.Encoder writes for the same value: Go's field order
// (a request's "app" last, as the wire form's shallower field sorts),
// omitempty, map keys sorted, strings escaped for HTML, floats in
// encoding/json's format, and its error on NaN or an infinity. The server
// scans requests with scanRequest and the client the replies with
// scanResponse; what either does not take goes to encoding/json.

// appendRequest appends req's line, newline included, to dst.
func appendRequest(dst []byte, req Request) ([]byte, error) {
	var err error
	dst = append(dst, `{"op":`...)
	dst = appendString(dst, req.Op)
	dst = appendField(dst, `,"sessionId":`, req.SessionID)
	if len(req.UserQoS) > 0 {
		dst = append(dst, `,"userQoS":`...)
		if dst, err = appendVector(dst, req.UserQoS); err != nil {
			return dst, err
		}
	}
	dst = appendField(dst, `,"clientDevice":`, req.ClientDevice)
	dst = appendField(dst, `,"toDevice":`, req.ToDevice)
	if req.MaxFrames != 0 {
		dst = strconv.AppendInt(append(dst, `,"maxFrames":`...), req.MaxFrames, 10)
	}
	if req.Instance != nil {
		// Registration is rare; its instance goes through encoding/json.
		b, err := json.Marshal(req.Instance)
		if err != nil {
			return dst, err
		}
		dst = append(append(dst, `,"instance":`...), b...)
	}
	dst = appendField(dst, `,"name":`, req.Name)
	if len(req.InstalledOn) > 0 {
		dst = appendStrings(append(dst, `,"installedOn":`...), req.InstalledOn)
	}
	dst = appendField(dst, `,"class":`, req.Class)
	dst = appendField(dst, `,"metric":`, req.Metric)
	dst = appendField(dst, `,"window":`, req.Window)
	dst = appendField(dst, `,"incident":`, req.Incident)
	dst = appendField(dst, `,"traceId":`, req.TraceID)
	dst = appendField(dst, `,"spanId":`, req.SpanID)
	if req.App != nil {
		if dst, err = appendGraph(append(dst, `,"app":`...), req.App); err != nil {
			return dst, err
		}
	}
	return append(dst, "}\n"...), nil
}

// appendGraph appends an abstract graph's document, walking it in place.
func appendGraph(dst []byte, ag *composer.AbstractGraph) ([]byte, error) {
	var err error
	dst = append(dst, `{"nodes":[`...)
	for i := 0; i < ag.NodeCount(); i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		n := ag.NodeAt(i)
		dst = appendString(append(dst, `{"id":`...), string(n.ID))
		dst = appendString(append(dst, `,"spec":{"type":`...), n.Spec.Type)
		if len(n.Spec.Attrs) > 0 {
			dst = appendStringMap(append(dst, `,"attrs":`...), n.Spec.Attrs)
		}
		if len(n.Spec.Input) > 0 {
			if dst, err = appendVector(append(dst, `,"input":`...), n.Spec.Input); err != nil {
				return dst, err
			}
		}
		if len(n.Spec.Output) > 0 {
			if dst, err = appendVector(append(dst, `,"output":`...), n.Spec.Output); err != nil {
				return dst, err
			}
		}
		dst = append(dst, '}')
		if n.Optional {
			dst = append(dst, `,"optional":true`...)
		}
		dst = appendField(dst, `,"pin":`, n.Pin)
		dst = append(dst, '}')
	}
	dst = append(dst, `],"edges":`...)
	edges := 0
	ag.EachEdge(func(from, to int, tp float64) {
		if err != nil {
			return
		}
		if edges++; edges == 1 {
			dst = append(dst, '[')
		} else {
			dst = append(dst, ',')
		}
		dst = appendString(append(dst, `{"from":`...), string(ag.NodeAt(from).ID))
		dst = appendString(append(dst, `,"to":`...), string(ag.NodeAt(to).ID))
		dst, err = appendFloat(append(dst, `,"throughputMbps":`...), tp)
		dst = append(dst, '}')
	})
	switch {
	case err != nil:
		return dst, err
	case edges == 0:
		return append(dst, "null}"...), nil
	}
	return append(dst, "]}"...), nil
}

// appendVector appends a QoS vector.
func appendVector(dst []byte, v qos.Vector) ([]byte, error) {
	var err error
	dst = append(dst, '[')
	for i, p := range v {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(append(dst, `{"name":`...), p.Name)
		dst = strconv.AppendInt(append(dst, `,"value":{"kind":`...), int64(p.Value.Kind), 10)
		dst = appendField(dst, `,"sym":`, p.Value.Sym)
		for _, f := range [...]struct {
			key string
			x   float64
		}{{`,"num":`, p.Value.Num}, {`,"lo":`, p.Value.Lo}, {`,"hi":`, p.Value.Hi}} {
			if f.x != 0 {
				if dst, err = appendFloat(append(dst, f.key...), f.x); err != nil {
					return dst, err
				}
			}
		}
		if len(p.Value.Syms) > 0 {
			dst = appendStrings(append(dst, `,"syms":`...), p.Value.Syms)
		}
		dst = append(dst, "}}"...)
	}
	return append(dst, ']'), nil
}

// plain reports whether r carries nothing but ok, error and session, the
// shape of the start, stop and switch replies, which appendResponse writes.
func (r *Response) plain() bool {
	return r.Devices == nil && r.Services == nil && r.Sessions == nil && r.Metrics == "" &&
		r.Trace == nil && r.Stranded == nil && r.CheckSummary == "" && r.Flight == nil &&
		r.FlightSessions == nil && r.SLO == nil && r.Explain == nil && r.ExplainSessions == nil &&
		r.Version == nil && r.Stats == nil && r.Timeseries == nil && r.TimeseriesMetrics == nil &&
		r.Saturation == nil && r.Admission == nil && r.Ledger == nil && r.LedgerSessions == nil &&
		r.Scorecards == nil && r.Incidents == nil && r.Incident == nil && r.Postmortem == ""
}

// appendResponse appends a plain reply's line, newline included, to dst.
func appendResponse(dst []byte, r *Response) ([]byte, error) {
	dst = strconv.AppendBool(append(dst, `{"ok":`...), r.OK)
	dst = appendField(dst, `,"error":`, r.Error)
	if si := r.Session; si != nil {
		var err error
		dst = appendString(append(dst, `,"session":{"id":`...), si.ID)
		dst = appendString(append(dst, `,"clientDevice":`...), si.ClientDevice)
		dst = append(dst, `,"placement":`...)
		if si.Placement == nil {
			dst = append(dst, "null"...)
		} else {
			dst = appendStringMap(dst, si.Placement)
		}
		t := si.Timing
		for _, f := range [...]struct {
			key string
			x   float64
		}{{`,"cost":`, si.Cost}, {`,"timing":{"compositionMs":`, t.CompositionMs}, {`,"distributionMs":`, t.DistributionMs},
			{`,"downloadingMs":`, t.DownloadingMs}, {`,"initOrHandoffMs":`, t.InitOrHandoffMs}} {
			if dst, err = appendFloat(append(dst, f.key...), f.x); err != nil {
				return dst, err
			}
		}
		dst = append(dst, '}')
		if len(si.Rates) > 0 {
			dst = append(dst, `,"rates":{`...)
			for i, k := range sortedKeys(si.Rates) {
				if i > 0 {
					dst = append(dst, ',')
				}
				if dst, err = appendFloat(append(appendString(dst, k), ':'), si.Rates[k]); err != nil {
					return dst, err
				}
			}
			dst = append(dst, '}')
		}
		dst = appendField(dst, `,"summary":`, si.Summary)
		dst = appendField(dst, `,"dot":`, si.DOT)
		dst = append(dst, '}')
	}
	return append(dst, "}\n"...), nil
}

// decodeResponse parses one reply line: through scanResponse when it takes
// the line, through encoding/json when it does not.
func decodeResponse(line []byte) (Response, error) {
	if resp, ok := scanResponse(line); ok {
		return resp, nil
	}
	var resp Response
	err := json.Unmarshal(line, &resp)
	return resp, err
}

// appendField appends key and s when s is not empty: an omitempty string.
func appendField(dst []byte, key, s string) []byte {
	if s == "" {
		return dst
	}
	return appendString(append(dst, key...), s)
}

// appendStrings appends a string array.
func appendStrings(dst []byte, ss []string) []byte {
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, s)
	}
	return append(dst, ']')
}

// appendStringMap appends a string-to-string object, its keys sorted (as
// sortedKeys sorts them, byte-wise, which is encoding/json's order).
func appendStringMap(dst []byte, m map[string]string) []byte {
	dst = append(dst, '{')
	for i, k := range sortedKeys(m) {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(append(appendString(dst, k), ':'), m[k])
	}
	return append(dst, '}')
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// decimal that reads back as f, in exponent form outside [1e-6, 1e21),
// the exponent's leading zero dropped; NaN and infinities are refused.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-07 → e-7
		dst = dst[:n-1]
	}
	return dst, nil
}

// appendString appends s as a JSON string, escaped as encoding/json
// escapes it: quote, backslash and control bytes, the HTML characters <,
// > and &, U+2028 and U+2029, and each invalid UTF-8 byte as U+FFFD.
func appendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}
