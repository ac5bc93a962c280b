// Package ring implements the consistent-hashing partitioner Dynamo-style
// stores use to map keys to replica preference lists (Section 2.2: "one
// quorum system per key, typically maintaining the mapping of keys to
// quorum systems using a consistent-hashing scheme"). Nodes own multiple
// virtual points on a hash circle; a key's preference list is the first N
// distinct physical nodes clockwise from the key's hash.
package ring

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
)

// vnode is one virtual point on the circle.
type vnode struct {
	hash uint64
	node int
}

// Ring maps keys to preference lists over a fixed node set. Node identity
// is a stable integer ID: a vnode's circle position depends only on its
// owner's ID, so adding or removing one node moves only the arcs adjacent
// to that node's virtual points — the minimal-disruption property elastic
// membership (Membership.Join/Leave) relies on.
type Ring struct {
	nodes  int
	points []vnode
}

// New builds a ring over physical nodes 0..nodes-1 with vnodesPerNode
// virtual points each. Panics on non-positive arguments.
func New(nodes, vnodesPerNode int) *Ring {
	if nodes < 1 {
		panic("ring: need at least one node")
	}
	ids := make([]int, nodes)
	for i := range ids {
		ids[i] = i
	}
	return NewWithIDs(ids, vnodesPerNode)
}

// NewWithIDs builds a ring over an explicit node-ID set (IDs need not be
// contiguous — an elastic cluster that has seen leaves keeps stable IDs
// with holes). Panics on an empty or duplicated ID set, negative IDs, or a
// non-positive vnode count.
func NewWithIDs(ids []int, vnodesPerNode int) *Ring {
	if len(ids) < 1 {
		panic("ring: need at least one node")
	}
	if vnodesPerNode < 1 {
		panic("ring: need at least one vnode per node")
	}
	seen := make(map[int]bool, len(ids))
	r := &Ring{nodes: len(ids)}
	r.points = make([]vnode, 0, len(ids)*vnodesPerNode)
	for _, id := range ids {
		if id < 0 {
			panic("ring: node ids must be non-negative")
		}
		if seen[id] {
			panic(fmt.Sprintf("ring: duplicate node id %d", id))
		}
		seen[id] = true
		// The vnode name "node-<id>#vnode-<v>" is built in a stack buffer:
		// a ring is rebuilt for every membership a node absorbs, gossip
		// included, and a heap string per vnode was most of that cost.
		var name [64]byte
		prefix := strconv.AppendInt(append(name[:0], "node-"...), int64(id), 10)
		prefix = append(prefix, "#vnode-"...)
		for v := 0; v < vnodesPerNode; v++ {
			h := Hash(strconv.AppendInt(prefix, int64(v), 10))
			r.points = append(r.points, vnode{hash: h, node: id})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r
}

// Nodes returns the number of physical nodes.
func (r *Ring) Nodes() int { return r.nodes }

// Hash places a key on the circle: FNV-1a followed by a SplitMix64
// finalizer. Raw FNV-1a clusters badly on short, similar strings (e.g.
// "node-1#vnode-2"), which skews arc ownership; the avalanche step restores
// uniformity. A key held as bytes (a frame being decoded) hashes to the
// same point as its string, without a copy.
func Hash[K ~string | ~[]byte](key K) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	z := uint64(offset64)
	for i := 0; i < len(key); i++ {
		z ^= uint64(key[i])
		z *= prime64
	}
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// PreferenceList returns the first n distinct physical nodes clockwise from
// the key's position. It panics if n exceeds the number of physical nodes.
func (r *Ring) PreferenceList(key string, n int) []int {
	return r.AppendPreferenceList(nil, Hash(key), n)
}

// AppendPreferenceList appends the first n distinct physical nodes
// clockwise from circle position h (a key's Hash) to dst and returns the
// extended slice; with room for n in dst it allocates nothing, which is
// how the serving path asks once per operation. It panics if n exceeds
// the number of physical nodes.
func (r *Ring) AppendPreferenceList(dst []int, h uint64, n int) []int {
	if n > r.nodes {
		panic("ring: preference list larger than cluster")
	}
	if n < 1 {
		panic("ring: preference list must have at least one node")
	}
	base := len(dst)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for i := 0; len(dst)-base < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !slices.Contains(dst[base:], p.node) {
			dst = append(dst, p.node)
		}
	}
	return dst
}

// Coordinator returns the first node in the key's preference list, the
// node Dynamo designates to establish version ordering for the key.
func (r *Ring) Coordinator(key string) int {
	var one [1]int
	return r.AppendPreferenceList(one[:0], Hash(key), 1)[0]
}

// LoadBalance measures ownership balance: it hashes `samples` synthetic keys
// and returns, for each node, the fraction owned as primary replica. With
// enough vnodes the fractions approach 1/nodes.
func (r *Ring) LoadBalance(samples int) []float64 {
	counts := make([]int, r.nodes)
	for i := 0; i < samples; i++ {
		counts[r.Coordinator(fmt.Sprintf("sample-key-%d", i))]++
	}
	out := make([]float64, r.nodes)
	for i, c := range counts {
		out[i] = float64(c) / float64(samples)
	}
	return out
}
