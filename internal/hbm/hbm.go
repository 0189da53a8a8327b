// Package hbm models the physical organisation of the memory fleets the
// Cordial paper studies. The default topology is the paper's HBM2E
// organisation (§II-A): a fleet of compute nodes, each with 8 NPUs, each
// NPU with two HBM sockets; every HBM is an 8Hi stack exposing 2 stack IDs
// (SIDs), 8 channels, 2 pseudo-channels per channel, 4 bank groups per
// pseudo-channel and 4 banks per group. A bank is a two-dimensional array
// of cells indexed by row and column.
//
// The package provides a compact address representation, the micro-level
// hierarchy used throughout the paper (NPU → HBM → SID → CH → PS-CH → BG →
// Bank → Row, with the channel level between SID and pseudo-channel), and
// geometry helpers the simulators and predictors share. Topologies beyond
// HBM2E — HBM3 stacks and DDR4/DDR5 DIMM fleets, which add rank and device
// levels and place the channel above the module — are named Profiles in a
// registry (see profile.go). A profile's Layout packs, unpacks, parses and
// truncates addresses; every caller is handed the profile it works under.
package hbm

import (
	"cmp"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// Geometry describes the dimensions of the modelled memory fleet. The zero
// value is not useful; start from DefaultGeometry or a registered
// profile's Geometry and adjust. For DIMM topologies the NPU dimension is
// the socket count and the HBM dimension the DIMMs per channel; the
// hierarchy ordering lives in the Profile, not here.
type Geometry struct {
	Nodes          int // compute nodes in the fleet
	NPUsPerNode    int // NPUs (or sockets) per compute node
	HBMsPerNPU     int // HBM sockets per NPU (or DIMMs per channel)
	SIDsPerHBM     int // stack IDs per HBM (8Hi stack → 2 SIDs)
	ChannelsPerSID int // channels per stack ID (or per socket)
	PseudoChPerCh  int // pseudo-channels per channel
	RanksPerModule int // ranks per DIMM; 0 means 1 (HBM topologies)
	DevicesPerRank int // DRAM devices per rank; 0 means 1 (HBM topologies)
	BankGroups     int // bank groups per pseudo-channel (or per device)
	BanksPerGroup  int // banks per bank group
	RowsPerBank    int // rows per bank
	ColsPerBank    int // columns per bank
}

// DefaultGeometry matches the HBM2E organisation in the paper (Figure 1)
// with a fleet large enough (1024 NPUs) that error banks stay sparse per
// NPU — the sparsity the hierarchical sudden-ratio structure of Table I
// depends on — while tests and examples still run quickly. Production-like
// studies scale Nodes up further; nothing else changes.
var DefaultGeometry = Geometry{
	Nodes:          128,
	NPUsPerNode:    8,
	HBMsPerNPU:     2,
	SIDsPerHBM:     2,
	ChannelsPerSID: 8,
	PseudoChPerCh:  2,
	BankGroups:     4,
	BanksPerGroup:  4,
	RowsPerBank:    32768,
	ColsPerBank:    128,
}

// dim returns the number of distinct values the field can take under the
// geometry. The rank and device dimensions are normalised: zero means the
// level does not exist, i.e. exactly one value.
func (g *Geometry) dim(f field) int {
	switch f {
	case fieldNode:
		return g.Nodes
	case fieldNPU:
		return g.NPUsPerNode
	case fieldHBM:
		return g.HBMsPerNPU
	case fieldSID:
		return g.SIDsPerHBM
	case fieldChannel:
		return g.ChannelsPerSID
	case fieldPseudoChannel:
		return g.PseudoChPerCh
	case fieldRank:
		if g.RanksPerModule <= 0 {
			return 1
		}
		return g.RanksPerModule
	case fieldDevice:
		if g.DevicesPerRank <= 0 {
			return 1
		}
		return g.DevicesPerRank
	case fieldBankGroup:
		return g.BankGroups
	case fieldBank:
		return g.BanksPerGroup
	case fieldRow:
		return g.RowsPerBank
	case fieldColumn:
		return g.ColsPerBank
	}
	return 0
}

// TotalBanks returns the number of banks in the fleet.
func (g Geometry) TotalBanks() int {
	return g.Nodes * g.NPUsPerNode * g.HBMsPerNPU * g.SIDsPerHBM *
		g.ChannelsPerSID * g.PseudoChPerCh * g.dim(fieldRank) * g.dim(fieldDevice) *
		g.BankGroups * g.BanksPerGroup
}

// Level identifies a micro-level of the memory hierarchy. The set of
// levels present and their coarse-to-fine ordering are properties of the
// Profile; Level values themselves are stable identifiers.
type Level int

// Hierarchy levels. Under HBM topologies LevelChannel sits between SID and
// pseudo-channel; under DIMM topologies LevelChannel sits above the module
// and LevelRank/LevelDevice sit between module and bank group. The numeric
// order of the constants is not the hierarchy order — consult
// Profile.Levels for that.
const (
	LevelNPU Level = iota + 1
	LevelHBM
	LevelSID
	LevelChannel
	LevelPseudoChannel
	LevelBankGroup
	LevelBank
	LevelRow
	LevelRank
	LevelDevice
)

var levelNames = map[Level]string{
	LevelNPU:           "NPU",
	LevelHBM:           "HBM",
	LevelSID:           "SID",
	LevelChannel:       "CH",
	LevelPseudoChannel: "PS-CH",
	LevelRank:          "Rank",
	LevelDevice:        "Dev",
	LevelBankGroup:     "BG",
	LevelBank:          "Bank",
	LevelRow:           "Row",
}

// String returns the paper's abbreviation for the level under the default
// topology; Profile.LevelName applies per-topology renames (Socket, DIMM).
func (l Level) String() string {
	if s, ok := levelNames[l]; ok {
		return s
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// Address identifies a memory location (or a coarser entity, with the finer
// fields zeroed) inside the fleet. All fields are zero-based indices. Rank
// and Device are zero under HBM topologies, which give them no extent. The
// ten bank-level fields have BankAddress's types, the widths NewLayout
// enforces, so an Address is 32 bytes; ParseAddress refuses an index its
// field cannot hold rather than let the conversion wrap it.
type Address struct {
	Node          uint32
	NPU           uint8
	HBM           uint8
	SID           uint8
	Channel       uint8
	PseudoChannel uint8
	Rank          uint8
	Device        uint8
	BankGroup     uint8
	Bank          uint8
	Row           int
	Column        int
}

// get returns the field's value.
func (a *Address) get(f field) int {
	switch f {
	case fieldNode:
		return int(a.Node)
	case fieldNPU:
		return int(a.NPU)
	case fieldHBM:
		return int(a.HBM)
	case fieldSID:
		return int(a.SID)
	case fieldChannel:
		return int(a.Channel)
	case fieldPseudoChannel:
		return int(a.PseudoChannel)
	case fieldRank:
		return int(a.Rank)
	case fieldDevice:
		return int(a.Device)
	case fieldBankGroup:
		return int(a.BankGroup)
	case fieldBank:
		return int(a.Bank)
	case fieldRow:
		return a.Row
	case fieldColumn:
		return a.Column
	}
	return 0
}

// set assigns the field's value. A bank-level field keeps only the low bits
// its type holds, so v must already be within the layout's capacity.
func (a *Address) set(f field, v int) {
	switch f {
	case fieldNode:
		a.Node = uint32(v)
	case fieldNPU:
		a.NPU = uint8(v)
	case fieldHBM:
		a.HBM = uint8(v)
	case fieldSID:
		a.SID = uint8(v)
	case fieldChannel:
		a.Channel = uint8(v)
	case fieldPseudoChannel:
		a.PseudoChannel = uint8(v)
	case fieldRank:
		a.Rank = uint8(v)
	case fieldDevice:
		a.Device = uint8(v)
	case fieldBankGroup:
		a.BankGroup = uint8(v)
	case fieldBank:
		a.Bank = uint8(v)
	case fieldRow:
		a.Row = v
	case fieldColumn:
		a.Column = v
	}
}

// Pack encodes the address into a single uint64 under the layout. Pack and
// Unpack are inverses for any address whose fields are within the layout's
// encoding capacities; a field outside its capacity is silently lost, which
// is why every trust boundary (wire decode, JSONL parse, simulator emit) must
// use PackChecked or CheckPacked instead.
func (l *Layout) Pack(a Address) uint64 {
	return uint64(a.Node)<<l.shift[fieldNode] |
		uint64(a.NPU)<<l.shift[fieldNPU] |
		uint64(a.HBM)<<l.shift[fieldHBM] |
		uint64(a.SID)<<l.shift[fieldSID] |
		uint64(a.Channel)<<l.shift[fieldChannel] |
		uint64(a.PseudoChannel)<<l.shift[fieldPseudoChannel] |
		uint64(a.Rank)<<l.shift[fieldRank] |
		uint64(a.Device)<<l.shift[fieldDevice] |
		uint64(a.BankGroup)<<l.shift[fieldBankGroup] |
		uint64(a.Bank)<<l.shift[fieldBank] |
		uint64(a.Row)<<l.shift[fieldRow] |
		uint64(a.Column)<<l.shift[fieldColumn]
}

// PackChecked encodes the address, rejecting any field outside its bit
// budget in the layout instead of truncating it. This is the only safe way to
// derive a key from an address that crossed a trust boundary.
func (l *Layout) PackChecked(a Address) (uint64, error) {
	var v uint64
	for f := field(0); f < numFields; f++ {
		x := a.get(f)
		if err := l.checkIndex(f, x); err != nil {
			return 0, err
		}
		v |= uint64(x) << l.shift[f]
	}
	return v, nil
}

// checkIndex rejects an index field f cannot encode under the layout.
func (l *Layout) checkIndex(f field, x int) error {
	if x < 0 || x >= l.capacity(f) {
		return fmt.Errorf("hbm: address %s index %d outside encoding range [0,%d) (%d bits)",
			fieldNames[f], x, l.capacity(f), l.width[f])
	}
	return nil
}

// Unpack decodes an address Pack produced under the same layout.
func (l *Layout) Unpack(v uint64) Address {
	x := func(f field) uint64 { return v >> l.shift[f] & (1<<l.width[f] - 1) }
	return Address{
		Node:          uint32(x(fieldNode)),
		NPU:           uint8(x(fieldNPU)),
		HBM:           uint8(x(fieldHBM)),
		SID:           uint8(x(fieldSID)),
		Channel:       uint8(x(fieldChannel)),
		PseudoChannel: uint8(x(fieldPseudoChannel)),
		Rank:          uint8(x(fieldRank)),
		Device:        uint8(x(fieldDevice)),
		BankGroup:     uint8(x(fieldBankGroup)),
		Bank:          uint8(x(fieldBank)),
		Row:           int(x(fieldRow)),
		Column:        int(x(fieldColumn)),
	}
}

// CheckPacked rejects a packed address with bits set outside the layout.
// Unpack silently drops such bits, which would alias two distinct (corrupt)
// keys onto one address; checking before decoding turns that into a
// detectable error at the trust boundary.
func (l *Layout) CheckPacked(v uint64) error {
	if rest := v &^ l.used; rest != 0 {
		return fmt.Errorf("hbm: packed address %#x has bits %#x outside the %d-bit layout", v, rest, l.Bits())
	}
	return nil
}

// Validate reports whether the address is within the geometry's bounds.
func (a Address) Validate(g Geometry) error {
	for f := field(0); f < numFields; f++ {
		if v, n := a.get(f), g.dim(f); v < 0 || v >= n {
			return fmt.Errorf("hbm: %s index %d out of range [0,%d)", fieldNames[f], v, n)
		}
	}
	return nil
}

// String renders the address in the canonical dotted form, e.g.
// "n3.u2.h1.s0.c5.p1.g2.b3.r12345.col87". Under topologies with rank and
// device levels the two extra segments appear after the bank, e.g.
// "n3.u1.h0.s0.c5.p0.g2.b3.k1.d6.r12345.col87"; they are omitted entirely
// when both are zero, so HBM addresses keep their historical form.
func (a Address) String() string {
	var b strings.Builder
	b.Grow(56)
	fields := addressFieldsShort
	if a.Rank != 0 || a.Device != 0 {
		fields = addressFieldsLong
	}
	for i, f := range fields {
		if i > 0 {
			b.WriteByte('.')
		}
		b.WriteString(f.tag)
		b.WriteString(strconv.Itoa(a.get(f.f)))
	}
	return b.String()
}

// addressField pairs a string tag with the address field it renders.
type addressField struct {
	tag string
	f   field
}

var addressFieldsShort = []addressField{
	{"n", fieldNode}, {"u", fieldNPU}, {"h", fieldHBM}, {"s", fieldSID},
	{"c", fieldChannel}, {"p", fieldPseudoChannel}, {"g", fieldBankGroup},
	{"b", fieldBank}, {"r", fieldRow}, {"col", fieldColumn},
}

var addressFieldsLong = []addressField{
	{"n", fieldNode}, {"u", fieldNPU}, {"h", fieldHBM}, {"s", fieldSID},
	{"c", fieldChannel}, {"p", fieldPseudoChannel}, {"g", fieldBankGroup},
	{"b", fieldBank}, {"k", fieldRank}, {"d", fieldDevice},
	{"r", fieldRow}, {"col", fieldColumn},
}

// parseCanonicalInt parses a non-negative decimal integer in canonical
// form: digits only, no sign, no leading zeros. Anything strconv accepts
// but Itoa would not reproduce — "+3", "007", "1_0" — is rejected, so the
// parse/render pair is a bijection and string-keyed dedup stays sound.
func parseCanonicalInt(s string) (int, error) {
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, err
	}
	if v < 0 || strconv.Itoa(v) != s {
		return 0, fmt.Errorf("non-canonical integer %q", s)
	}
	return v, nil
}

// ParseAddress parses the canonical dotted form produced by String. It is
// strict in both directions: each field must be a canonical decimal (no
// sign, no leading zeros) and must fit the layout's bit budget, so a parsed
// address always survives Pack without loss. The budget is checked
// before the index is stored, because a bank-level field is narrower than
// int and would otherwise wrap "u259" onto u3. Addresses with 12 fields
// carry rank and device; per the canonical form they must not both be zero
// there (String omits them in that case).
func (l *Layout) ParseAddress(s string) (Address, error) {
	parts := strings.Split(s, ".")
	var fields []addressField
	switch len(parts) {
	case len(addressFieldsShort):
		fields = addressFieldsShort
	case len(addressFieldsLong):
		fields = addressFieldsLong
	default:
		return Address{}, fmt.Errorf("hbm: address %q has %d fields, want %d or %d",
			s, len(parts), len(addressFieldsShort), len(addressFieldsLong))
	}
	var a Address
	for i, spec := range fields {
		p := parts[i]
		if !strings.HasPrefix(p, spec.tag) {
			return Address{}, fmt.Errorf("hbm: address field %q does not start with %q", p, spec.tag)
		}
		v, err := parseCanonicalInt(p[len(spec.tag):])
		if err != nil {
			return Address{}, fmt.Errorf("hbm: address field %q: %w", p, err)
		}
		if err := l.checkIndex(spec.f, v); err != nil {
			return Address{}, err
		}
		a.set(spec.f, v)
	}
	if len(parts) == len(addressFieldsLong) && a.Rank == 0 && a.Device == 0 {
		return Address{}, fmt.Errorf("hbm: address %q spells out zero rank and device; canonical form omits them", s)
	}
	return a, nil
}

// Truncate zeroes every field finer than the given level under the layout's
// hierarchy, producing the address of the enclosing entity at that level. For
// example, truncating at LevelBank clears Row and Column; under a DIMM
// profile, truncating at LevelChannel clears the module, rank and device as
// well, because they sit below the channel there.
func (l *Layout) Truncate(a Address, level Level) Address {
	i := l.truncateFrom(level)
	if i < 0 {
		return a
	}
	for _, f := range l.order[i+1:] {
		a.set(f, 0)
	}
	return a
}

// EntityKey returns a unique packed key for the entity containing the
// address at the given level. Two addresses share a key at a level exactly
// when they fall in the same entity of that level.
func (l *Layout) EntityKey(a Address, level Level) uint64 { return l.Pack(l.Truncate(a, level)) }

// BankKey is EntityKey at LevelBank: a unique identifier for the bank
// containing the address. It is Pack(a) & BankMask(), which needs no
// truncated copy of the address.
func (l *Layout) BankKey(a Address) uint64 { return l.Pack(a) & l.bank }

// BankKey is HBM2E.Layout.BankKey(a). Bench-only until ROADMAP item 15: every
// other caller keys under the profile it is handed.
func (a Address) BankKey() uint64 { return HBM2E.Layout.BankKey(a) }

// Compare orders addresses field by field, coarsest first in the HBM
// hierarchy (the struct's order): the order of their packed keys under every
// HBM layout, for addresses their layout encodes.
func (a Address) Compare(b Address) int {
	for f := field(0); f < numFields; f++ {
		if c := cmp.Compare(a.get(f), b.get(f)); c != 0 {
			return c
		}
	}
	return 0
}

// BankAddress identifies one bank in the fleet: the ten fields of an Address
// from the node down to the bank, with no row and no column, so a cell
// address is not accepted where a bank is meant. The node is held in 32 bits
// and every other field in 8; NewLayout refuses a layout with a wider field,
// so every bank a layout encodes fits the type. Rank and Device are zero
// under HBM topologies.
type BankAddress struct {
	Node          uint32
	NPU           uint8
	HBM           uint8
	SID           uint8
	Channel       uint8
	PseudoChannel uint8
	Rank          uint8
	Device        uint8
	BankGroup     uint8
	Bank          uint8
}

// BankOf returns the bank containing a. Every layout places the bank, the row
// and the column finest (NewLayout), so this is a.Truncate(LevelBank).
func BankOf(a Address) BankAddress {
	return BankAddress{
		Node:          a.Node,
		NPU:           a.NPU,
		HBM:           a.HBM,
		SID:           a.SID,
		Channel:       a.Channel,
		PseudoChannel: a.PseudoChannel,
		Rank:          a.Rank,
		Device:        a.Device,
		BankGroup:     a.BankGroup,
		Bank:          a.Bank,
	}
}

// UnpackBank decodes the bank of a packed address: BankOf(Unpack(v)).
func (l *Layout) UnpackBank(v uint64) BankAddress { return BankOf(l.Unpack(v)) }

// CellInBank returns the full address of (row, col) within the given bank.
func CellInBank(b BankAddress, row, col int) Address {
	return Address{
		Node:          b.Node,
		NPU:           b.NPU,
		HBM:           b.HBM,
		SID:           b.SID,
		Channel:       b.Channel,
		PseudoChannel: b.PseudoChannel,
		Rank:          b.Rank,
		Device:        b.Device,
		BankGroup:     b.BankGroup,
		Bank:          b.Bank,
		Row:           row,
		Column:        col,
	}
}

// cell is the bank's address with row and column zero, the form its key,
// string and JSON encode.
func (b BankAddress) cell() Address { return CellInBank(b, 0, 0) }

// PackBank encodes the bank under the layout; it equals the BankKey of every
// cell in the bank.
func (l *Layout) PackBank(b BankAddress) uint64 { return l.Pack(b.cell()) }

// BankKey is HBM2E.Layout.PackBank(b). Bench-only until ROADMAP item 15: every
// other caller keys under the profile it is handed.
func (b BankAddress) BankKey() uint64 { return HBM2E.Layout.PackBank(b) }

// String renders the bank as its row-0, column-0 cell, e.g.
// "n3.u2.h1.s0.c5.p1.g2.b3.r0.col0", so that ParseAddress reads it back.
func (b BankAddress) String() string { return b.cell().String() }

// MarshalJSON writes the bank as the Address object of its row-0, column-0
// cell, the form ground-truth files have always carried.
func (b BankAddress) MarshalJSON() ([]byte, error) { return json.Marshal(b.cell()) }

// UnmarshalJSON reads the Address object MarshalJSON writes. A non-zero row
// or column, or a field the type cannot hold (json.Unmarshal refuses it), is
// an error.
func (b *BankAddress) UnmarshalJSON(data []byte) error {
	var a Address
	if err := json.Unmarshal(data, &a); err != nil {
		return err
	}
	if a.Row != 0 || a.Column != 0 {
		return fmt.Errorf("hbm: %s is not a bank address: it has a row or a column", a)
	}
	*b = BankOf(a)
	return nil
}

// RandomSource abstracts the subset of xrand.RNG the package needs, keeping
// hbm free of a dependency on the generator implementation.
type RandomSource interface {
	Intn(n int) int
}

// RandomBank draws a uniformly random bank address within the geometry.
// Degenerate dimensions (size 1) consume no randomness, so HBM topologies
// draw exactly the same stream they did before rank/device existed and
// seeded workloads stay byte-identical.
func RandomBank(g Geometry, r RandomSource) BankAddress {
	draw := func(n int) int {
		if n <= 1 {
			return 0
		}
		return r.Intn(n)
	}
	return BankAddress{
		Node:          uint32(draw(g.Nodes)),
		NPU:           uint8(draw(g.NPUsPerNode)),
		HBM:           uint8(draw(g.HBMsPerNPU)),
		SID:           uint8(draw(g.SIDsPerHBM)),
		Channel:       uint8(draw(g.ChannelsPerSID)),
		PseudoChannel: uint8(draw(g.PseudoChPerCh)),
		Rank:          uint8(draw(g.dim(fieldRank))),
		Device:        uint8(draw(g.dim(fieldDevice))),
		BankGroup:     uint8(draw(g.BankGroups)),
		Bank:          uint8(draw(g.BanksPerGroup)),
	}
}

// RandomBankWithin draws a random bank of the profile's geometry sharing the
// level entity of anchor: every bank-address field finer than the level under
// the profile's hierarchy is re-randomised. As with RandomBank, degenerate
// dimensions (size 1) consume no randomness.
func (p *Profile) RandomBankWithin(r RandomSource, anchor BankAddress, level Level) BankAddress {
	i := p.Layout.truncateFrom(level)
	if i < 0 {
		return anchor
	}
	b := anchor.cell()
	for _, f := range p.Layout.order[i+1:] {
		if f == fieldRow || f == fieldColumn {
			continue
		}
		if n := p.Geometry.dim(f); n > 1 {
			b.set(f, r.Intn(n))
		} else {
			b.set(f, 0)
		}
	}
	return BankOf(b)
}

// ClampRow clamps row into [0, g.RowsPerBank).
func (g *Geometry) ClampRow(row int) int {
	if row < 0 {
		return 0
	}
	if row >= g.RowsPerBank {
		return g.RowsPerBank - 1
	}
	return row
}
