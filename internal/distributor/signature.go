package distributor

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"
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
func Signature(p *Problem) (string, error) {
	if err := p.Validate(); err != nil {
		return "", err
	}
	h := sha256.New()
	wu := func(v uint64) {
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wf := func(f float64) { wu(math.Float64bits(f)) }
	ws := func(s string) { wu(uint64(len(s))); writeString(h, s) }

	nodes := p.Graph.Nodes()
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	ws("nodes")
	wu(uint64(len(nodes)))
	for _, n := range nodes {
		ws(string(n.ID))
		ws(n.Type)
		ws(n.Instance)
		ws(n.Pin)
		ws(n.In.String())
		ws(n.Out.String())
		wu(uint64(len(n.Resources)))
		for _, r := range n.Resources {
			wf(r)
		}
	}

	edges := p.Graph.Edges()
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})
	ws("edges")
	wu(uint64(len(edges)))
	for _, e := range edges {
		ws(string(e.From))
		ws(string(e.To))
		wf(e.ThroughputMbps)
	}

	devs := append([]DeviceInfo(nil), p.Devices...)
	sort.Slice(devs, func(i, j int) bool { return devs[i].ID < devs[j].ID })
	ws("devices")
	wu(uint64(len(devs)))
	for _, d := range devs {
		ws(string(d.ID))
		wu(uint64(len(d.Avail)))
		for _, a := range d.Avail {
			wf(a)
		}
	}

	ws("links")
	for i := 0; i < len(devs); i++ {
		for j := i + 1; j < len(devs); j++ {
			wf(p.Bandwidth(devs[i].ID, devs[j].ID))
		}
	}

	ws("weights")
	wu(uint64(len(p.Weights)))
	for _, w := range p.Weights {
		wf(w)
	}

	return hex.EncodeToString(h.Sum(nil)), nil
}

func writeString(h hash.Hash, s string) {
	h.Write([]byte(s))
}
