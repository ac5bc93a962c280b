package ring

// Membership is the versioned cluster view elastic deployments route by: a
// ring epoch, the set of member nodes (stable integer IDs plus their public
// HTTP and internal replication addresses), and the consistent-hash ring
// built over exactly those IDs. A Membership is immutable; Join and Leave
// return a new Membership one epoch higher, so layers that route by it
// (coordinators, handoff, anti-entropy, clients) can hold an atomic
// snapshot and swap it wholesale when the cluster changes shape.
//
// Ring epochs order cluster *shapes* and are unrelated to the per-key seq
// epochs in the version numbers (server.SeqEpoch): a seq epoch fences two
// coordinators of one key's history, a ring epoch fences two views of the
// node set. Receivers adopt the higher ring epoch; equal epochs with
// different member sets signal concurrent membership changes. Which of
// two rival configurations owns an epoch is arbitrated above this
// package by the replicated config log (internal/configlog): slot e of
// the log holds the one Membership at epoch e, and servers pin a digest
// per decided epoch so a conflicting same-epoch view is rejected.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Member is one node of the cluster.
type Member struct {
	// ID is the node's stable identity. IDs are allocated monotonically and
	// never reused, so a cluster that has seen leaves has holes.
	ID int
	// HTTPAddr is the node's public key-value API base URL.
	HTTPAddr string
	// InternalAddr is the node's replication-transport TCP address.
	InternalAddr string
}

// Membership is an immutable, versioned node set with its routing ring.
type Membership struct {
	epoch   uint64
	vnodes  int
	members []Member // sorted by ID
	ring    *Ring
}

// NewMembership builds the epoch-1 membership over the given members.
func NewMembership(members []Member, vnodesPerNode int) (*Membership, error) {
	return newMembership(1, members, vnodesPerNode)
}

func newMembership(epoch uint64, members []Member, vnodesPerNode int) (*Membership, error) {
	if len(members) < 1 {
		return nil, errors.New("ring: membership needs at least one member")
	}
	if vnodesPerNode < 1 {
		return nil, errors.New("ring: membership needs at least one vnode per node")
	}
	if epoch < 1 {
		return nil, errors.New("ring: membership epochs start at 1")
	}
	ms := append([]Member(nil), members...)
	sort.Slice(ms, func(i, j int) bool { return ms[i].ID < ms[j].ID })
	ids := make([]int, len(ms))
	for i, m := range ms {
		if m.ID < 0 {
			return nil, fmt.Errorf("ring: negative member id %d", m.ID)
		}
		if i > 0 && ms[i-1].ID == m.ID {
			return nil, fmt.Errorf("ring: duplicate member id %d", m.ID)
		}
		ids[i] = m.ID
	}
	return &Membership{
		epoch:   epoch,
		vnodes:  vnodesPerNode,
		members: ms,
		ring:    NewWithIDs(ids, vnodesPerNode),
	}, nil
}

// Epoch returns the ring epoch (monotone across Join/Leave).
func (m *Membership) Epoch() uint64 { return m.epoch }

// Vnodes returns the per-node virtual point count.
func (m *Membership) Vnodes() int { return m.vnodes }

// Size returns the number of members.
func (m *Membership) Size() int { return len(m.members) }

// Members returns the members sorted by ID (a copy).
func (m *Membership) Members() []Member {
	return append([]Member(nil), m.members...)
}

// IDs returns the member IDs in ascending order.
func (m *Membership) IDs() []int {
	ids := make([]int, len(m.members))
	for i, mem := range m.members {
		ids[i] = mem.ID
	}
	return ids
}

// Member returns the member with the given ID.
func (m *Membership) Member(id int) (Member, bool) {
	i := sort.Search(len(m.members), func(i int) bool { return m.members[i].ID >= id })
	if i < len(m.members) && m.members[i].ID == id {
		return m.members[i], true
	}
	return Member{}, false
}

// Contains reports whether id is a member.
func (m *Membership) Contains(id int) bool {
	_, ok := m.Member(id)
	return ok
}

// NextID returns the smallest ID larger than every member's — the ID a
// joining node would be assigned. IDs grow monotonically and are never
// reused, so a departed node's hints and seq epochs can never be
// misattributed to a later joiner.
func (m *Membership) NextID() int {
	return m.members[len(m.members)-1].ID + 1
}

// SeqModulus is the modulus structural seq-epoch ownership is computed
// under (epoch e belongs to node e mod SeqModulus). Using the ID allocation
// bound rather than the member count keeps ownership stable for every ID
// ever allocated, whatever joins and leaves happened in between.
func (m *Membership) SeqModulus() uint64 {
	return uint64(m.NextID())
}

// Join returns a new Membership one epoch higher with mem added. The
// joiner's ID must not collide with a current member.
func (m *Membership) Join(mem Member) (*Membership, error) {
	if m.Contains(mem.ID) {
		return nil, fmt.Errorf("ring: member %d already present", mem.ID)
	}
	return newMembership(m.epoch+1, append(m.Members(), mem), m.vnodes)
}

// Leave returns a new Membership one epoch higher with id removed. The
// last member cannot leave.
func (m *Membership) Leave(id int) (*Membership, error) {
	if !m.Contains(id) {
		return nil, fmt.Errorf("ring: member %d not present", id)
	}
	if len(m.members) == 1 {
		return nil, errors.New("ring: cannot remove the last member")
	}
	keep := make([]Member, 0, len(m.members)-1)
	for _, mem := range m.members {
		if mem.ID != id {
			keep = append(keep, mem)
		}
	}
	return newMembership(m.epoch+1, keep, m.vnodes)
}

// PreferenceList returns the first n distinct member IDs clockwise from the
// key's ring position.
func (m *Membership) PreferenceList(key string, n int) []int {
	return m.ring.PreferenceList(key, n)
}

// AppendPreferenceList appends the first n distinct member IDs clockwise
// from circle position h (a key's Hash) to dst (Ring.AppendPreferenceList).
func (m *Membership) AppendPreferenceList(dst []int, h uint64, n int) []int {
	return m.ring.AppendPreferenceList(dst, h, n)
}

// Coordinator returns the key's primary coordinator under this view.
func (m *Membership) Coordinator(key string) int {
	return m.ring.Coordinator(key)
}

// Equal reports whether two memberships describe the same epoch, vnode
// count, and member set.
func (m *Membership) Equal(o *Membership) bool {
	if m.epoch != o.epoch || m.vnodes != o.vnodes || len(m.members) != len(o.members) {
		return false
	}
	for i, mem := range m.members {
		if o.members[i] != mem {
			return false
		}
	}
	return true
}

func (m *Membership) String() string {
	ids := make([]string, len(m.members))
	for i, mem := range m.members {
		ids[i] = fmt.Sprintf("%d", mem.ID)
	}
	return fmt.Sprintf("epoch %d: {%s}", m.epoch, strings.Join(ids, ","))
}

// --- wire codec ---------------------------------------------------------
//
// The membership codec is self-contained (no dependency on the server
// transport's encoder) so both halves of the system — the replication
// transport's opMembership frames and any future gossip/persistence — share
// one format:
//
//	u64 epoch | u16 vnodes | u16 count | count × (u32 id | str16 http | str16 internal)
//
// str16 is a u16 length prefix followed by raw bytes.

const (
	// maxMembers bounds a decoded member set so a corrupt count cannot
	// trigger a huge allocation.
	maxMembers = 1 << 14
	// maxAddrLen bounds one encoded address.
	maxAddrLen = 1 << 12
)

func appendStr16(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

// EncodeMembership serializes m.
func EncodeMembership(m *Membership) []byte {
	b := binary.BigEndian.AppendUint64(nil, m.epoch)
	b = binary.BigEndian.AppendUint16(b, uint16(m.vnodes))
	b = binary.BigEndian.AppendUint16(b, uint16(len(m.members)))
	for _, mem := range m.members {
		b = binary.BigEndian.AppendUint32(b, uint32(mem.ID))
		b = appendStr16(b, mem.HTTPAddr)
		b = appendStr16(b, mem.InternalAddr)
	}
	return b
}

type memDecoder struct {
	b   []byte
	err error
}

func (d *memDecoder) take(n int) []byte {
	if d.err != nil || len(d.b) < n {
		d.err = errors.New("ring: short membership encoding")
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *memDecoder) u16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (d *memDecoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (d *memDecoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (d *memDecoder) str16() string {
	n := int(d.u16())
	if n > maxAddrLen {
		d.err = errors.New("ring: membership address too long")
		return ""
	}
	return string(d.take(n))
}

// DecodeMembership parses an EncodeMembership payload, validating it the
// same way NewMembership would (non-empty, unique non-negative IDs,
// positive epoch and vnodes) and rejecting trailing garbage.
func DecodeMembership(b []byte) (*Membership, error) {
	d := &memDecoder{b: b}
	epoch := d.u64()
	vnodes := int(d.u16())
	count := int(d.u16())
	if d.err != nil {
		return nil, d.err
	}
	if count > maxMembers {
		return nil, fmt.Errorf("ring: membership of %d members exceeds limit", count)
	}
	members := make([]Member, 0, count)
	for i := 0; i < count; i++ {
		id := int(int32(d.u32()))
		http := d.str16()
		internal := d.str16()
		if d.err != nil {
			return nil, d.err
		}
		members = append(members, Member{ID: id, HTTPAddr: http, InternalAddr: internal})
	}
	if len(d.b) != 0 {
		return nil, errors.New("ring: trailing bytes after membership encoding")
	}
	return newMembership(epoch, members, vnodes)
}
