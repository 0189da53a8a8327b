// Package cluster is Cordial's distributed serving tier: the pieces that
// turn a set of single-node cordial-serve daemons into one fleet-scale
// service. It holds three cooperating components:
//
//   - a consistent-hash Ring (this file) that maps bank addresses to serve
//     nodes deterministically, with virtual nodes for balance and minimal
//     placement movement when membership changes;
//   - a ControlPlane, the membership service: nodes register and heartbeat,
//     health is probed via their /readyz, and every membership change is
//     published as a new ring epoch after session handoff has moved the
//     affected banks' state (snapshot + WAL-suffix transfer over HTTP);
//   - a Node agent (the serve-node side) and a Router (the stateless ingest
//     front) that both derive placement from the same ring descriptor, so
//     routing and ownership can never disagree within an epoch.
//
// The wire unit is the Descriptor: epoch, virtual-node count and the member
// list. Rings are rebuilt deterministically from a descriptor on every
// participant — only membership travels, never hash tables.
package cluster

import (
	"cmp"
	"fmt"
	"sort"

	"cordial/internal/hbm"
)

// DefaultVNodes is the virtual-node count per member when a descriptor
// leaves it zero. 128 keeps the max/mean bank load ratio under ~1.25 for
// small clusters while ring construction stays trivially cheap.
const DefaultVNodes = 128

// Member is one serve node as tracked by the control plane and published
// in ring descriptors.
type Member struct {
	// ID is the node's stable identity (placement hashes over it, so a
	// node that restarts under the same ID reclaims the same banks).
	ID string `json:"id"`
	// Addr is the node's HTTP base host:port (the cordial-serve listener).
	Addr string `json:"addr"`
	// WALDir is the node's durability directory as registered. The control
	// plane reads it for dead-node takeover, so in a multi-host deployment
	// it must name shared storage reachable from the control plane.
	WALDir string `json:"walDir,omitempty"`
}

// Descriptor is the serialized ring: everything a participant needs to
// rebuild placement bit-identically. Epochs totally order membership
// changes; a node or router holding epoch E must treat any E' > E as
// superseding it.
type Descriptor struct {
	// Epoch is the membership version, bumped on every join/leave.
	Epoch uint64 `json:"epoch"`
	// VNodes is the virtual-node count per member (0 = DefaultVNodes).
	VNodes int `json:"vnodes,omitempty"`
	// Profile names the topology profile every member's engine packs
	// addresses under, fixed by the first registration. Empty reads as
	// hbm2e, the profile of a descriptor written before the field existed.
	Profile string `json:"profile,omitempty"`
	// Members is the node set, in registration order. Order does not
	// affect placement (hashing is by ID), but it is kept stable so
	// descriptors are comparable in logs and tests.
	Members []Member `json:"members"`
}

// Member returns the member with the given ID, if present.
func (d Descriptor) Member(id string) (Member, bool) {
	for _, m := range d.Members {
		if m.ID == id {
			return m, true
		}
	}
	return Member{}, false
}

// Ring is a built consistent-hash ring: a sorted circle of virtual-node
// points. Build one from a Descriptor with BuildRing; lookups are
// read-only and safe for concurrent use.
type Ring struct {
	desc   Descriptor
	prof   *hbm.Profile
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash  uint64
	owner int // index into desc.Members
}

// mix64 is the splitmix64 finaliser — the same full-avalanche mixer the
// stream engine shards with, reused so placement quality is already
// characterised.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashString folds a string through FNV-1a then mixes; used for member
// IDs so virtual-node positions depend only on (ID, replica index).
func hashString(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return mix64(h)
}

// BuildRing constructs the ring for a descriptor. Construction is pure:
// the same descriptor always yields the same placement, on any
// participant, in any process — the property FuzzRingPlacement pins.
// Duplicate member IDs are rejected (they would silently halve a node's
// arc), as is a profile no registry entry names. An empty member list is a
// valid ring that owns nothing.
func BuildRing(desc Descriptor) (*Ring, error) {
	vnodes := desc.VNodes
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	prof, err := hbm.ProfileByName(cmp.Or(desc.Profile, hbm.HBM2E.Name))
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	seen := make(map[string]struct{}, len(desc.Members))
	for _, m := range desc.Members {
		if m.ID == "" {
			return nil, fmt.Errorf("cluster: member with empty ID")
		}
		if _, dup := seen[m.ID]; dup {
			return nil, fmt.Errorf("cluster: duplicate member ID %q", m.ID)
		}
		seen[m.ID] = struct{}{}
	}
	r := &Ring{desc: desc, prof: prof}
	r.desc.VNodes = vnodes
	r.points = make([]ringPoint, 0, vnodes*len(desc.Members))
	for mi, m := range desc.Members {
		base := hashString(m.ID)
		for v := 0; v < vnodes; v++ {
			// Derive replica points by mixing the member hash with the
			// replica index; mix64 is bijective, so distinct (ID, v) pairs
			// collide only when FNV itself collides.
			r.points = append(r.points, ringPoint{
				hash:  mix64(base + uint64(v)*0x9e3779b97f4a7c15),
				owner: mi,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Tie-break on member ID so even a hash collision keeps placement
		// deterministic and descriptor-order independent.
		return desc.Members[r.points[i].owner].ID < desc.Members[r.points[j].owner].ID
	})
	return r, nil
}

// Descriptor returns the ring's (defaulted) descriptor.
func (r *Ring) Descriptor() Descriptor { return r.desc }

// Profile returns the topology profile the ring's banks are keyed under.
func (r *Ring) Profile() *hbm.Profile { return r.prof }

// Epoch returns the ring's membership version.
func (r *Ring) Epoch() uint64 { return r.desc.Epoch }

// Len returns the member count.
func (r *Ring) Len() int { return len(r.desc.Members) }

// Owner maps a bank key (the packed bank address, as produced by
// hbm.Address.BankKey) to the owning member. ok is false only on an empty
// ring. Placement is total: every possible key has exactly one owner.
func (r *Ring) Owner(bankKey uint64) (Member, bool) {
	if len(r.points) == 0 {
		return Member{}, false
	}
	h := mix64(bankKey)
	// First point clockwise from the key's position, wrapping past the top.
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.desc.Members[r.points[i].owner], true
}

// OwnerID is Owner reduced to the member ID ("" on an empty ring).
func (r *Ring) OwnerID(bankKey uint64) string {
	m, ok := r.Owner(bankKey)
	if !ok {
		return ""
	}
	return m.ID
}

// Owns reports whether the given member owns the bank key. The serve-node
// ownership filter is this predicate curried over the node's own ID.
func (r *Ring) Owns(id string, bankKey uint64) bool { return r.OwnerID(bankKey) == id }

// Member returns the ring member with the given ID, if present.
func (r *Ring) Member(id string) (Member, bool) { return r.desc.Member(id) }
