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
// SHA-256, is where the time goes. The graph is read by position: nodes
// are sorted as positions, and the edges are bucketed by their source's
// rank in two positional walks, so no edge end resolves a NodeID.
func Signature(p *Problem) (string, error) {
	if err := p.Validate(); err != nil {
		return "", err
	}
	sc := sigScratches.Get().(*sigScratch)
	b := sc.buf[:0]

	// byID lists the positions in ID order; rank inverts it.
	nodes := p.Graph.Nodes()
	n := len(nodes)
	byID, rank := sc.byID[:0], slices.Grow(sc.rank[:0], n)[:n]
	for i := range nodes {
		byID = append(byID, int32(i))
	}
	slices.SortFunc(byID, func(x, y int32) int { return strings.Compare(string(nodes[x].ID), string(nodes[y].ID)) })
	b.str("nodes")
	b.word(uint64(n))
	for r, pos := range byID {
		rank[pos] = int32(r)
		node := nodes[pos]
		b.str(string(node.ID))
		b.str(node.Type)
		b.str(node.Instance)
		b.str(node.Pin)
		b.vector(node.In)
		b.vector(node.Out)
		b.floats(node.Resources)
	}

	// Edges in (source, target) order: bucket them by source rank, so only
	// each node's few outgoing edges are left to sort by target rank.
	// ends[r] counts, then starts, then ends bucket r.
	ends := slices.Grow(sc.ends[:0], n+1)[:n+1]
	clear(ends)
	p.Graph.EachEdge(func(from, _ int, _ float64) { ends[rank[from]+1]++ })
	for r := 0; r < n; r++ {
		ends[r+1] += ends[r]
	}
	edges := slices.Grow(sc.edges[:0], p.Graph.EdgeCount())[:p.Graph.EdgeCount()]
	p.Graph.EachEdge(func(from, to int, tp float64) {
		r := rank[from]
		edges[ends[r]] = sigEdge{to: rank[to], tp: tp}
		ends[r]++
	})
	b.str("edges")
	b.word(uint64(len(edges)))
	start := int32(0)
	for r, pos := range byID {
		out := edges[start:ends[r]]
		start = ends[r]
		slices.SortFunc(out, func(x, y sigEdge) int { return int(x.to - y.to) })
		for _, e := range out {
			b.str(string(nodes[pos].ID))
			b.str(string(nodes[byID[e.to]].ID))
			b.float(e.tp)
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
	sc.buf, sc.byID, sc.rank, sc.ends, sc.edges = b, byID, rank, ends, edges
	sigScratches.Put(sc)
	return hex.EncodeToString(sum[:]), nil
}

// sigScratch is what one Signature call lays out, recycled between calls:
// the canonical byte string and the positional sort of the graph.
type sigScratch struct {
	buf        sigBuffer
	byID, rank []int32
	ends       []int32
	edges      []sigEdge
}

// sigEdge is one outgoing edge in a source's bucket: the target's rank in
// ID order and the throughput.
type sigEdge struct {
	to int32
	tp float64
}

var sigScratches = sync.Pool{New: func() any { return new(sigScratch) }}

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
