package distributor

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"

	"ubiqos/internal/graph"
	"ubiqos/internal/qos"
)

// Signature digests a Problem into a canonical hex string: concrete graph
// structure (node identities, resource requirements, QoS vectors, pins;
// edges with throughput), device capacities, the pairwise link-bandwidth
// matrix, and the significance weights. Every float is hashed by its
// exact bit pattern and every collection is hashed in sorted ID order, so
// two problems built in different insertion orders — or by different
// sessions — produce the same signature exactly when the distribution
// instance is the same. A cached assignment keyed by the signature is
// therefore valid for any problem that reproduces it.
//
// The canonical byte string is laid out in one pooled buffer and hashed
// in a single write; on graphs of a few hundred nodes and edges that, not
// SHA-256, is where the time goes.
func Signature(p *Problem) (string, error) {
	if err := p.Validate(); err != nil {
		return "", err
	}
	bp := sigBuffers.Get().(*[]byte)
	b := sigBuffer((*bp)[:0])

	nodes := p.Graph.Nodes()
	slices.SortFunc(nodes, func(x, y *graph.Node) int { return strings.Compare(string(x.ID), string(y.ID)) })
	b.str("nodes")
	b.word(uint64(len(nodes)))
	for _, n := range nodes {
		b.str(string(n.ID))
		b.str(n.Type)
		b.str(n.Instance)
		b.str(n.Pin)
		b.vector(n.In)
		b.vector(n.Out)
		b.floats(n.Resources)
	}

	// Edges in (source, target) order: the sorted nodes give the source
	// order, so only each node's few outgoing edges are left to sort.
	b.str("edges")
	b.word(uint64(p.Graph.EdgeCount()))
	for _, n := range nodes {
		out := p.Graph.Out(n.ID)
		slices.SortFunc(out, func(x, y graph.Edge) int { return strings.Compare(string(x.To), string(y.To)) })
		for _, e := range out {
			b.str(string(e.From))
			b.str(string(e.To))
			b.float(e.ThroughputMbps)
		}
	}

	devs := slices.Clone(p.Devices)
	slices.SortFunc(devs, func(x, y DeviceInfo) int { return strings.Compare(string(x.ID), string(y.ID)) })
	b.str("devices")
	b.word(uint64(len(devs)))
	for _, d := range devs {
		b.str(string(d.ID))
		b.floats(d.Avail)
	}

	b.str("links")
	for i := 0; i < len(devs); i++ {
		for j := i + 1; j < len(devs); j++ {
			b.float(p.Bandwidth(devs[i].ID, devs[j].ID))
		}
	}

	b.str("weights")
	b.floats(p.Weights)

	sum := sha256.Sum256(b)
	*bp = b
	sigBuffers.Put(bp)
	return hex.EncodeToString(sum[:]), nil
}

// sigBuffers recycles the canonical byte strings between Signature calls.
var sigBuffers = sync.Pool{New: func() any { return new([]byte) }}

// sigBuffer accumulates a problem's canonical byte string: 8-byte
// big-endian words, and strings and float lists prefixed by their length.
type sigBuffer []byte

func (b *sigBuffer) word(v uint64)   { *b = binary.BigEndian.AppendUint64(*b, v) }
func (b *sigBuffer) float(f float64) { b.word(math.Float64bits(f)) }

func (b *sigBuffer) str(s string) {
	b.word(uint64(len(s)))
	*b = append(*b, s...)
}

func (b *sigBuffer) floats(fs []float64) {
	b.word(uint64(len(fs)))
	for _, f := range fs {
		b.float(f)
	}
}

// vector appends a QoS vector as the length-prefixed bytes of its String
// rendering, written in place rather than through fmt and a string per
// parameter: two vectors hash alike exactly when they print alike.
func (b *sigBuffer) vector(v qos.Vector) {
	at := len(*b)
	b.word(0) // the length, once it is known
	buf := append(*b, '{')
	for i, p := range v {
		if i > 0 {
			buf = append(buf, ", "...)
		}
		buf = append(buf, p.Name...)
		buf = append(buf, '=')
		buf = appendValue(buf, p.Value)
	}
	buf = append(buf, '}')
	binary.BigEndian.PutUint64(buf[at:], uint64(len(buf)-at-8))
	*b = buf
}

// appendValue appends what qos.Value.String returns.
func appendValue(buf []byte, v qos.Value) []byte {
	switch v.Kind {
	case qos.KindSymbol:
		buf = append(buf, v.Sym...)
	case qos.KindScalar:
		buf = appendG(buf, v.Num)
	case qos.KindRange:
		buf = append(buf, '[')
		buf = appendG(buf, v.Lo)
		buf = append(buf, ',')
		buf = appendG(buf, v.Hi)
		buf = append(buf, ']')
	case qos.KindSet:
		buf = append(buf, '{')
		for i, s := range v.Syms {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, s...)
		}
		buf = append(buf, '}')
	default:
		buf = append(buf, "<invalid>"...)
	}
	return buf
}

// appendG appends f as fmt's %g prints it.
func appendG(buf []byte, f float64) []byte { return strconv.AppendFloat(buf, f, 'g', -1, 64) }
