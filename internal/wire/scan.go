package wire

import (
	"bytes"
	"strconv"

	"ubiqos/internal/composer"
	"ubiqos/internal/graph"
	"ubiqos/internal/qos"
	"ubiqos/internal/registry"
)

// field is one key of an object in a request document, spelled as the
// client spells it, with what scans its value into the object.
type field[T any] struct {
	key  string
	scan func(s *scanner, into *T)
}

// The fields of each object in a request document. A key outside its
// object's list, whatever its case, is not the scanner's to decode.
var (
	requestFields = []field[Request]{
		{"op", func(s *scanner, r *Request) { r.Op = s.str() }},
		{"sessionId", func(s *scanner, r *Request) { r.SessionID = s.str() }},
		{"app", func(s *scanner, r *Request) { r.App = s.graph() }},
		{"userQoS", func(s *scanner, r *Request) { r.UserQoS = s.vector() }},
		{"clientDevice", func(s *scanner, r *Request) { r.ClientDevice = s.str() }},
		{"toDevice", func(s *scanner, r *Request) { r.ToDevice = s.str() }},
		{"maxFrames", func(s *scanner, r *Request) { r.MaxFrames = s.int(64) }},
		{"name", func(s *scanner, r *Request) { r.Name = s.str() }},
		{"installedOn", func(s *scanner, r *Request) { r.InstalledOn = s.strings() }},
		{"class", func(s *scanner, r *Request) { r.Class = s.str() }},
		{"metric", func(s *scanner, r *Request) { r.Metric = s.str() }},
		{"window", func(s *scanner, r *Request) { r.Window = s.str() }},
		{"incident", func(s *scanner, r *Request) { r.Incident = s.str() }},
		{"traceId", func(s *scanner, r *Request) { r.TraceID = s.str() }},
		{"spanId", func(s *scanner, r *Request) { r.SpanID = s.str() }},
	}
	// graphFields are the abstract graph's keys, which graph takes only in
	// this order.
	graphFields = []string{"nodes", "edges"}
	nodeFields  = []field[composer.AbstractNode]{
		{"id", func(s *scanner, n *composer.AbstractNode) { n.ID = graph.NodeID(s.str()) }},
		{"spec", func(s *scanner, n *composer.AbstractNode) { object(s, specFields, &n.Spec) }},
		{"optional", func(s *scanner, n *composer.AbstractNode) { n.Optional = s.bool() }},
		{"pin", func(s *scanner, n *composer.AbstractNode) { n.Pin = s.str() }},
	}
	specFields = []field[registry.Spec]{
		{"type", func(s *scanner, sp *registry.Spec) { sp.Type = s.str() }},
		{"attrs", func(s *scanner, sp *registry.Spec) { sp.Attrs = mapOf(s, (*scanner).str) }},
		{"input", func(s *scanner, sp *registry.Spec) { sp.Input = s.vector() }},
		{"output", func(s *scanner, sp *registry.Spec) { sp.Output = s.vector() }},
	}
	paramFields = []field[qos.Param]{
		{"name", func(s *scanner, p *qos.Param) { p.Name = s.str() }},
		{"value", func(s *scanner, p *qos.Param) { object(s, valueFields, &p.Value) }},
	}
	valueFields = []field[qos.Value]{
		{"kind", func(s *scanner, v *qos.Value) { v.Kind = qos.Kind(s.int(strconv.IntSize)) }},
		{"sym", func(s *scanner, v *qos.Value) { v.Sym = s.str() }},
		{"num", func(s *scanner, v *qos.Value) { v.Num = s.float() }},
		{"lo", func(s *scanner, v *qos.Value) { v.Lo = s.float() }},
		{"hi", func(s *scanner, v *qos.Value) { v.Hi = s.float() }},
		{"syms", func(s *scanner, v *qos.Value) { v.Syms = s.strings() }},
	}

	// The fields of the replies the server writes by hand (appendResponse).
	responseFields = []field[Response]{
		{"ok", func(s *scanner, r *Response) { r.OK = s.bool() }},
		{"error", func(s *scanner, r *Response) { r.Error = s.str() }},
		{"session", func(s *scanner, r *Response) {
			r.Session = new(SessionInfo)
			object(s, sessionFields, r.Session)
		}},
	}
	sessionFields = []field[SessionInfo]{
		{"id", func(s *scanner, si *SessionInfo) { si.ID = s.str() }},
		{"clientDevice", func(s *scanner, si *SessionInfo) { si.ClientDevice = s.str() }},
		{"placement", func(s *scanner, si *SessionInfo) { si.Placement = mapOf(s, (*scanner).str) }},
		{"cost", func(s *scanner, si *SessionInfo) { si.Cost = s.float() }},
		{"timing", func(s *scanner, si *SessionInfo) { object(s, timingFields, &si.Timing) }},
		{"rates", func(s *scanner, si *SessionInfo) { si.Rates = mapOf(s, (*scanner).float) }},
		{"summary", func(s *scanner, si *SessionInfo) { si.Summary = s.str() }},
		{"dot", func(s *scanner, si *SessionInfo) { si.DOT = s.str() }},
	}
	timingFields = []field[TimingInfo]{
		{"compositionMs", func(s *scanner, t *TimingInfo) { t.CompositionMs = s.float() }},
		{"distributionMs", func(s *scanner, t *TimingInfo) { t.DistributionMs = s.float() }},
		{"downloadingMs", func(s *scanner, t *TimingInfo) { t.DownloadingMs = s.float() }},
		{"initOrHandoffMs", func(s *scanner, t *TimingInfo) { t.InitOrHandoffMs = s.float() }},
	}
)

// scanRequest decodes one request line in a single left-to-right pass, or
// reports false. It takes the documents the client writes: the keys above
// (every Request key but "instance"), each present at most once in its
// object, a graph's nodes before its edges; strings of ASCII with no
// escape and no control byte; numbers in JSON's grammar that strconv
// parses; no null but a graph's "edges"; nothing but whitespace after the
// object. On anything else it reports false, and the caller hands the line
// to encoding/json, which accepts it or refuses it in its own words. Where
// it accepts, the result is the one encoding/json would give: numbers go
// through the same strconv calls, and an empty array or object decodes to
// an empty, not a nil, slice or map. The graph is built as it is scanned,
// through AddNode and AddEdge, so a graph the line describes but they
// refuse is refused in their words: the first refusal is held until the
// line has scanned clean, and then returned as the line's error. Strings
// are copied out of the line, which the caller may reuse.
func scanRequest(line []byte) (req Request, took bool, err error) {
	s := scanner{buf: line}
	object(&s, requestFields, &req)
	s.peek()
	if s.bad || s.pos != len(s.buf) {
		return Request{}, false, nil
	}
	if s.err != nil {
		return Request{}, true, s.err
	}
	return req, true, nil
}

// scanResponse decodes the reply the server writes by hand, ok, error and
// session, as scanRequest decodes a request, or reports false for the
// caller to hand the line to encoding/json.
func scanResponse(line []byte) (Response, bool) {
	s := scanner{buf: line}
	var resp Response
	object(&s, responseFields, &resp)
	s.peek()
	if s.bad || s.pos != len(s.buf) {
		return Response{}, false
	}
	return resp, true
}

// scanner is the read position in one line. Its first failure sticks: it
// moves the position to the end of the line, where every later read fails
// too, so each loop ends at its next separator and the caller checks bad
// once.
type scanner struct {
	buf []byte
	pos int
	bad bool
	// err is the first refusal of the graph being built; once it is set
	// the rest of the graph is scanned but no longer built.
	err error
}

func (s *scanner) fail() {
	s.bad = true
	s.pos = len(s.buf)
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (s *scanner) peek() byte {
	for ; s.pos < len(s.buf); s.pos++ {
		switch c := s.buf[s.pos]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// eat consumes c as the next token.
func (s *scanner) eat(c byte) {
	if s.peek() != c {
		s.fail()
		return
	}
	s.pos++
}

// more consumes what follows an element: true at a comma, false at end
// (which closes the object or array) or on failure.
func (s *scanner) more(end byte) bool {
	switch s.peek() {
	case ',':
		s.pos++
		return true
	case end:
		s.pos++
	default:
		s.fail()
	}
	return false
}

// object scans an object into into, each key one of fields' and present
// at most once.
func object[T any](s *scanner, fields []field[T], into *T) {
	s.eat('{')
	if s.peek() == '}' {
		s.pos++
		return
	}
	var seen uint32
	for !s.bad {
		raw, k := s.raw(), 0
		for k < len(fields) && fields[k].key != string(raw) {
			k++
		}
		if k == len(fields) || seen&(1<<k) != 0 {
			s.fail()
			return
		}
		seen |= 1 << k
		s.eat(':')
		fields[k].scan(s, into)
		if !s.more('}') {
			return
		}
	}
}

// array scans an array, calling elem to scan each element.
func (s *scanner) array(elem func()) {
	s.eat('[')
	if s.peek() == ']' {
		s.pos++
		return
	}
	for !s.bad {
		elem()
		if !s.more(']') {
			return
		}
	}
}

// raw returns the bytes of the next string, which holds no escape, no
// control byte and nothing outside ASCII; encoding/json would decode it
// to those very bytes.
func (s *scanner) raw() []byte {
	s.eat('"')
	for i := s.pos; i < len(s.buf); i++ {
		switch c := s.buf[i]; {
		case c == '"':
			b := s.buf[s.pos:i]
			s.pos = i + 1
			return b
		case c < 0x20 || c == '\\' || c >= 0x80:
			s.fail()
			return nil
		}
	}
	s.fail()
	return nil
}

// str returns a copy of the next string.
func (s *scanner) str() string { return string(s.raw()) }

// strings scans an array of strings.
func (s *scanner) strings() []string {
	out := []string{}
	s.array(func() { out = append(out, s.str()) })
	return out
}

// number returns the bytes of the next number, which must follow JSON's
// grammar: strconv also takes forms JSON does not ("0x10", ".5", "Inf").
func (s *scanner) number() []byte {
	s.peek()
	b, i := s.buf, s.pos
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++ // a leading zero stands alone
	} else {
		i = digits(b, i)
	}
	if i >= 0 && i < len(b) && b[i] == '.' {
		i = digits(b, i+1)
	}
	if i >= 0 && i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		i = digits(b, i)
	}
	if i < 0 {
		s.fail()
		return nil
	}
	n := b[s.pos:i]
	s.pos = i
	return n
}

// digits returns the index past the run of decimal digits at b[i:], or -1
// when there is none.
func digits(b []byte, i int) int {
	j := i
	for j < len(b) && '0' <= b[j] && b[j] <= '9' {
		j++
	}
	if j == i {
		return -1
	}
	return j
}

// float parses the next number as encoding/json does for a float64.
func (s *scanner) float() float64 {
	f, err := strconv.ParseFloat(string(s.number()), 64)
	if err != nil {
		s.fail()
	}
	return f
}

// int parses the next number as encoding/json does for an integer of the
// given size.
func (s *scanner) int(bits int) int64 {
	n, err := strconv.ParseInt(string(s.number()), 10, bits)
	if err != nil {
		s.fail()
	}
	return n
}

func (s *scanner) bool() bool {
	switch {
	case s.literal("true"):
		return true
	case !s.literal("false"):
		s.fail()
	}
	return false
}

// expect consumes lit as the next token, or fails.
func (s *scanner) expect(lit string) {
	if !s.literal(lit) {
		s.fail()
	}
}

// literal consumes lit if it is the next token.
func (s *scanner) literal(lit string) bool {
	if s.peek() != lit[0] || !bytes.HasPrefix(s.buf[s.pos:], []byte(lit)) {
		return false
	}
	s.pos += len(lit)
	return true
}

// graph scans an abstract graph's document into the graph it describes:
// its nodes, then (if present) its edges.
func (s *scanner) graph() *composer.AbstractGraph {
	s.eat('{')
	if s.peek() == '}' {
		s.pos++
		return composer.NewAbstractGraph()
	}
	var ag *composer.AbstractGraph
	for k := 0; k < len(graphFields) && !s.bad; k++ {
		if string(s.raw()) != graphFields[k] {
			s.fail()
			break
		}
		s.eat(':')
		if k == 0 {
			ag = s.nodes()
		} else {
			s.edges(ag)
		}
		if !s.more('}') {
			return ag
		}
	}
	s.fail()
	return nil
}

// nodes scans the node list into a new graph, through AddNode.
func (s *scanner) nodes() *composer.AbstractGraph {
	p := composer.PlainGraph{Nodes: []*composer.AbstractNode{}}
	s.array(func() {
		n := new(composer.AbstractNode)
		p.Nodes = append(p.Nodes, n)
		object(s, nodeFields, n)
	})
	if s.bad {
		return nil
	}
	ag, err := composer.FromPlain(p)
	s.err = err
	return ag
}

// edges scans the edge list into ag, through AddEdge; null is no edges.
// It takes an edge only as the client writes it, its three keys in order
// with no space before a key; any other spelling of an edge is not the
// scanner's to decode.
func (s *scanner) edges(ag *composer.AbstractGraph) {
	if s.literal("null") {
		return
	}
	// Size the edge arrays once: every edge the scanner takes opens with
	// this key, which no string it takes can hold. A graph refused at its
	// nodes is nil.
	if s.err == nil && ag != nil {
		ag.GrowEdges(bytes.Count(s.buf[s.pos:], []byte(`{"from":`)))
	}
	s.array(func() {
		s.expect(`{"from":`)
		from := s.raw()
		s.expect(`,"to":`)
		to := s.raw()
		s.expect(`,"throughputMbps":`)
		tp := s.float()
		s.expect("}")
		if !s.bad && s.err == nil {
			s.err = ag.AddEdge(graph.NodeID(from), graph.NodeID(to), tp)
		}
	})
}

// vector scans a QoS vector.
func (s *scanner) vector() qos.Vector {
	out := qos.Vector{}
	s.array(func() {
		out = append(out, qos.Param{})
		object(s, paramFields, &out[len(out)-1])
	})
	return out
}

// mapOf scans an object of values that value scans; a repeated key is not
// the scanner's to decode either.
func mapOf[V any](s *scanner, value func(*scanner) V) map[string]V {
	m := map[string]V{}
	s.eat('{')
	if s.peek() == '}' {
		s.pos++
		return m
	}
	for !s.bad {
		k := s.raw()
		if _, dup := m[string(k)]; dup {
			s.fail()
			return nil
		}
		s.eat(':')
		m[string(k)] = value(s)
		if !s.more('}') {
			break
		}
	}
	return m
}
