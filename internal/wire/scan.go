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
	requestFields = []field[wireRequest]{
		{"op", func(s *scanner, r *wireRequest) { r.Op = s.str() }},
		{"sessionId", func(s *scanner, r *wireRequest) { r.SessionID = s.str() }},
		{"app", func(s *scanner, r *wireRequest) { r.App = s.graph() }},
		{"userQoS", func(s *scanner, r *wireRequest) { r.UserQoS = s.vector() }},
		{"clientDevice", func(s *scanner, r *wireRequest) { r.ClientDevice = s.str() }},
		{"toDevice", func(s *scanner, r *wireRequest) { r.ToDevice = s.str() }},
		{"maxFrames", func(s *scanner, r *wireRequest) { r.MaxFrames = s.int(64) }},
		{"name", func(s *scanner, r *wireRequest) { r.Name = s.str() }},
		{"installedOn", func(s *scanner, r *wireRequest) { r.InstalledOn = s.strings() }},
		{"class", func(s *scanner, r *wireRequest) { r.Class = s.str() }},
		{"metric", func(s *scanner, r *wireRequest) { r.Metric = s.str() }},
		{"window", func(s *scanner, r *wireRequest) { r.Window = s.str() }},
		{"incident", func(s *scanner, r *wireRequest) { r.Incident = s.str() }},
		{"traceId", func(s *scanner, r *wireRequest) { r.TraceID = s.str() }},
		{"spanId", func(s *scanner, r *wireRequest) { r.SpanID = s.str() }},
	}
	graphFields = []field[composer.PlainGraph]{
		{"nodes", func(s *scanner, p *composer.PlainGraph) { p.Nodes = s.nodes() }},
		{"edges", func(s *scanner, p *composer.PlainGraph) { p.Edges = s.edges() }},
	}
	nodeFields = []field[composer.AbstractNode]{
		{"id", func(s *scanner, n *composer.AbstractNode) { n.ID = graph.NodeID(s.str()) }},
		{"spec", func(s *scanner, n *composer.AbstractNode) { object(s, specFields, &n.Spec) }},
		{"optional", func(s *scanner, n *composer.AbstractNode) { n.Optional = s.bool() }},
		{"pin", func(s *scanner, n *composer.AbstractNode) { n.Pin = s.str() }},
	}
	specFields = []field[registry.Spec]{
		{"type", func(s *scanner, sp *registry.Spec) { sp.Type = s.str() }},
		{"attrs", func(s *scanner, sp *registry.Spec) { sp.Attrs = s.attrs() }},
		{"input", func(s *scanner, sp *registry.Spec) { sp.Input = s.vector() }},
		{"output", func(s *scanner, sp *registry.Spec) { sp.Output = s.vector() }},
	}
	edgeFields = []field[composer.AbstractEdge]{
		{"from", func(s *scanner, e *composer.AbstractEdge) { e.From = s.nodeID() }},
		{"to", func(s *scanner, e *composer.AbstractEdge) { e.To = s.nodeID() }},
		{"throughputMbps", func(s *scanner, e *composer.AbstractEdge) { e.ThroughputMbps = s.float() }},
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
)

// scanRequest decodes one request line in a single left-to-right pass,
// straight into the wire form, or reports false. It takes the documents
// the client writes: the keys above (every Request key but "instance"),
// each present at most once in its object; strings of ASCII with no
// escape and no control byte; numbers in JSON's grammar that strconv
// parses; no null; nothing but whitespace after the object. On anything
// else it reports false, and the caller hands the line to encoding/json,
// which accepts it or refuses it in its own words. Where it accepts, the
// result is the one encoding/json would give: numbers go through the same
// strconv calls, and an empty array or object decodes to an empty, not a
// nil, slice or map. Strings are copied out of the line, which the caller
// may reuse.
func scanRequest(line []byte) (wireRequest, bool) {
	s := scanner{buf: line}
	var wr wireRequest
	object(&s, requestFields, &wr)
	s.peek()
	if s.bad || s.pos != len(s.buf) {
		return wireRequest{}, false
	}
	return wr, true
}

// scanner is the read position in one request line. Its first failure
// sticks: it moves the position to the end of the line, where every later
// read fails too, so each loop ends at its next separator and the caller
// checks bad once.
type scanner struct {
	buf []byte
	pos int
	bad bool
	// ids maps each node ID of the graph's node list to the string decoded
	// for it, so that edge endpoints share that string.
	ids map[string]graph.NodeID
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

// nodeID returns the next string as a node ID, sharing the string of the
// node list's ID when it names one.
func (s *scanner) nodeID() graph.NodeID {
	raw := s.raw()
	if id, ok := s.ids[string(raw)]; ok {
		return id
	}
	return graph.NodeID(raw)
}

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

// literal consumes lit if it is the next token.
func (s *scanner) literal(lit string) bool {
	if s.peek() != lit[0] || !bytes.HasPrefix(s.buf[s.pos:], []byte(lit)) {
		return false
	}
	s.pos += len(lit)
	return true
}

// graph scans an abstract graph's plain document.
func (s *scanner) graph() *composer.PlainGraph {
	p := new(composer.PlainGraph)
	object(s, graphFields, p)
	return p
}

// nodes scans the node list and records each ID for the edges to share.
func (s *scanner) nodes() []*composer.AbstractNode {
	out := []*composer.AbstractNode{}
	s.array(func() {
		n := new(composer.AbstractNode)
		out = append(out, n)
		object(s, nodeFields, n)
	})
	s.ids = make(map[string]graph.NodeID, len(out))
	for _, n := range out {
		s.ids[string(n.ID)] = n.ID
	}
	return out
}

func (s *scanner) edges() []composer.AbstractEdge {
	out := []composer.AbstractEdge{}
	s.array(func() {
		out = append(out, composer.AbstractEdge{})
		object(s, edgeFields, &out[len(out)-1])
	})
	return out
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

// attrs scans a string-to-string object; a repeated key is not the
// scanner's to decode either.
func (s *scanner) attrs() map[string]string {
	m := map[string]string{}
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
		m[string(k)] = s.str()
		if !s.more('}') {
			break
		}
	}
	return m
}
