package hbm

import (
	"fmt"
	"slices"
)

// Topology profiles.
//
// The packed-address encoding, the micro-level hierarchy and the geometry
// used to be one hard-coded HBM2E layout. A Profile bundles the three into
// a named, registered unit: the fleet Geometry, the bit Layout of the
// packed address, and the ordered hierarchy Levels (DDR organisations add
// rank/device and place the channel above the module; HBM stacks do the
// reverse). A packed address is meaningless without its layout, so each
// process resolves its profile once, at its edge (a -topology flag, a ring
// descriptor), and hands it to everything that packs, unpacks, parses or
// truncates addresses.

// field enumerates the address fields a layout can allocate bits to, in
// struct order. Hierarchy order is a per-profile property (Layout.order);
// field values are stable identifiers, not positions.
type field int

const (
	fieldNode field = iota
	fieldNPU
	fieldHBM
	fieldSID
	fieldChannel
	fieldPseudoChannel
	fieldRank
	fieldDevice
	fieldBankGroup
	fieldBank
	fieldRow
	fieldColumn
	numFields
)

var fieldNames = [numFields]string{
	"node", "npu", "hbm", "sid", "channel", "pseudo-channel",
	"rank", "device", "bank group", "bank", "row", "column",
}

// levelField maps each hierarchy level to the address field it truncates
// at. The mapping is global; only the ordering of levels varies by profile.
var levelField = map[Level]field{
	LevelNPU:           fieldNPU,
	LevelHBM:           fieldHBM,
	LevelSID:           fieldSID,
	LevelChannel:       fieldChannel,
	LevelPseudoChannel: fieldPseudoChannel,
	LevelRank:          fieldRank,
	LevelDevice:        fieldDevice,
	LevelBankGroup:     fieldBankGroup,
	LevelBank:          fieldBank,
	LevelRow:           fieldRow,
}

// Layout is the bit allocation of the packed uint64 address: which fields
// exist, in what hierarchy order (coarsest first, so coarser fields land in
// higher bits), and how many bits each gets. A zero-width field is carried
// in the Address struct but occupies no bits — packing a nonzero value into
// it is an encoding-range error under PackChecked and silent loss under
// Pack, which is why trust boundaries must use the checked form.
type Layout struct {
	order [numFields]field // hierarchy order, coarsest first; always all fields
	width [numFields]int   // bits per field, indexed by field
	shift [numFields]uint  // bit position per field, indexed by field
	used  uint64           // mask of bits any field occupies
	bank  uint64           // BankMask: used without the row and column bits
}

// maxWidth is the widest each field may be: BankAddress holds the node in 32
// bits and the other bank-level fields in 8, and a row or column index in a
// packed address gets at most 32.
var maxWidth = [numFields]int{
	fieldNode: 32, fieldNPU: 8, fieldHBM: 8, fieldSID: 8, fieldChannel: 8,
	fieldPseudoChannel: 8, fieldRank: 8, fieldDevice: 8, fieldBankGroup: 8,
	fieldBank: 8, fieldRow: 32, fieldColumn: 32,
}

// NewLayout builds a layout from a hierarchy order (coarsest first; must
// mention every field exactly once and end with the bank, the row and the
// column, so that a bank is its ten coarser fields) and per-field bit widths,
// each at most its maxWidth.
func NewLayout(order []field, width map[field]int) (Layout, error) {
	var l Layout
	if len(order) != int(numFields) {
		return Layout{}, fmt.Errorf("hbm: layout order has %d fields, want %d", len(order), numFields)
	}
	seen := [numFields]bool{}
	for i, f := range order {
		if f < 0 || f >= numFields || seen[f] {
			return Layout{}, fmt.Errorf("hbm: layout order entry %d (%v) invalid or duplicated", i, f)
		}
		seen[f] = true
		l.order[i] = f
	}
	if l.order[numFields-3] != fieldBank || l.order[numFields-2] != fieldRow || l.order[numFields-1] != fieldColumn {
		return Layout{}, fmt.Errorf("hbm: layout order must end with bank, row, column")
	}
	total := 0
	for f, w := range width {
		if w < 0 || w > maxWidth[f] {
			return Layout{}, fmt.Errorf("hbm: layout width %d for %s out of range [0,%d]", w, fieldNames[f], maxWidth[f])
		}
		l.width[f] = w
		total += w
	}
	if total > 64 {
		return Layout{}, fmt.Errorf("hbm: layout needs %d bits, only 64 available", total)
	}
	// Assign shifts finest-field-first from bit 0 upward.
	shift := uint(0)
	for i := int(numFields) - 1; i >= 0; i-- {
		f := l.order[i]
		l.shift[f] = shift
		shift += uint(l.width[f])
		l.used |= l.fieldMask(f)
	}
	l.bank = l.used &^ (l.fieldMask(fieldRow) | l.fieldMask(fieldColumn))
	return l, nil
}

// Bits returns the total number of bits the layout occupies.
func (l *Layout) Bits() int {
	n := 0
	for _, w := range l.width {
		n += w
	}
	return n
}

// capacity returns the number of distinct values field f can encode.
func (l *Layout) capacity(f field) int { return 1 << l.width[f] }

// BankMask reduces an address packed under the layout to its bank's key:
// v & BankMask() == Unpack(v).BankKey() for every v. It keeps the bits of
// every field but the row and the column, the two finest in every layout.
func (l *Layout) BankMask() uint64 { return l.bank }

// fieldMask is the bits field f occupies.
func (l *Layout) fieldMask(f field) uint64 { return (uint64(1)<<l.width[f] - 1) << l.shift[f] }

// RowField returns where the row sits in a packed address: the row of v is
// v >> shift & (1<<width - 1).
func (l *Layout) RowField() (shift uint, width int) {
	return l.shift[fieldRow], l.width[fieldRow]
}

// Fits reports whether every dimension of the geometry is positive (rank and
// device may be zero, meaning absent) and within the layout's bit budget.
func (l *Layout) Fits(g Geometry) error {
	if g.RanksPerModule < 0 || g.DevicesPerRank < 0 {
		return fmt.Errorf("hbm: geometry ranks %d and devices %d must be non-negative", g.RanksPerModule, g.DevicesPerRank)
	}
	for f := field(0); f < numFields; f++ {
		if dim := g.dim(f); dim <= 0 {
			return fmt.Errorf("hbm: geometry %s must be positive, got %d", fieldNames[f], dim)
		} else if dim > l.capacity(f) {
			return fmt.Errorf("hbm: geometry %s = %d exceeds layout capacity %d (%d bits)",
				fieldNames[f], dim, l.capacity(f), l.width[f])
		}
	}
	return nil
}

// bitsFor returns the bits needed to index n distinct values (0 for n<=1).
func bitsFor(n int) int {
	b := 0
	for (1 << b) < n {
		b++
	}
	return b
}

// Profile is a named memory topology: geometry, packed-address layout and
// hierarchy. Profiles are immutable after registration.
type Profile struct {
	// Name is the registry key, e.g. "hbm2e" or "ddr5-dimm".
	Name string
	// Geometry is the fleet's dimensions under this topology.
	Geometry Geometry
	// Layout is the packed-address bit allocation.
	Layout Layout
	// Levels is the full hierarchy, coarsest first, restricted to levels
	// that exist (capacity > 1) under this topology.
	Levels []Level
	// TableLevels are the levels the per-level study tables report.
	TableLevels []Level
	// levelNames overrides Level display names (e.g. NPU → "Socket").
	levelNames map[Level]string
}

// LevelName returns the display name of a level under this profile: DDR
// organisations rename NPU to Socket and HBM to DIMM.
func (p *Profile) LevelName(l Level) string {
	if s, ok := p.levelNames[l]; ok {
		return s
	}
	return l.String()
}

// Validate checks the profile's internal consistency: positive dimensions,
// every dimension within its layout capacity, and a coherent level list.
func (p *Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("hbm: profile has empty name")
	}
	if err := p.Layout.Fits(p.Geometry); err != nil {
		return fmt.Errorf("hbm: profile %q: %w", p.Name, err)
	}
	for _, l := range slices.Concat(p.Levels, p.TableLevels) {
		if _, ok := levelField[l]; !ok {
			return fmt.Errorf("hbm: profile %q lists unknown level %v", p.Name, l)
		}
	}
	return nil
}

// Derive returns an unregistered profile with p's hierarchy, level names and
// the minimal layout of geometry g, each field given exactly the bits its
// dimension needs: an ad-hoc topology for tests. Registered profiles use
// hand-picked widths with headroom instead.
func (p *Profile) Derive(name string, g Geometry) (*Profile, error) {
	width := make(map[field]int, numFields)
	for f := field(0); f < numFields; f++ {
		width[f] = bitsFor(g.dim(f))
	}
	l, err := NewLayout(p.Layout.order[:], width)
	if err != nil {
		return nil, err
	}
	d := &Profile{Name: name, Geometry: g, Layout: l, Levels: p.Levels, TableLevels: p.TableLevels, levelNames: p.levelNames}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// truncateFrom returns the index in the layout order after which fields are
// zeroed when truncating at level l, or -1 if the level has no field here.
func (l *Layout) truncateFrom(level Level) int {
	f, ok := levelField[level]
	if !ok {
		return -1
	}
	for i, of := range l.order {
		if of == f {
			return i
		}
	}
	return -1
}

// registry holds the named profiles, filled at package load.
var registry = map[string]*Profile{}

// ProfileByName looks up a registered profile.
func ProfileByName(name string) (*Profile, error) {
	p, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("hbm: unknown topology profile %q (registered: %v)", name, ProfileNames())
	}
	return p, nil
}

// ProfileNames returns the registered profile names, sorted.
func ProfileNames() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// hbmOrder is the stack hierarchy: node → NPU → HBM → SID → channel →
// pseudo-channel → bank group → bank → row → column. The rank and device
// fields exist in the struct but have no extent under HBM topologies; they
// sit just above the bank group so zero-width truncation stays coherent.
var hbmOrder = []field{
	fieldNode, fieldNPU, fieldHBM, fieldSID, fieldChannel, fieldPseudoChannel,
	fieldRank, fieldDevice, fieldBankGroup, fieldBank, fieldRow, fieldColumn,
}

// ddrOrder is the DIMM hierarchy: node → socket → channel → DIMM → rank →
// device → bank group → bank → row → column. The NPU field plays the
// socket, the HBM field the DIMM; SID and pseudo-channel have no extent.
var ddrOrder = []field{
	fieldNode, fieldNPU, fieldChannel, fieldHBM, fieldRank, fieldDevice,
	fieldSID, fieldPseudoChannel, fieldBankGroup, fieldBank, fieldRow, fieldColumn,
}

// ddrLevelNames renames the reused fields for DIMM topologies.
var ddrLevelNames = map[Level]string{
	LevelNPU: "Socket",
	LevelHBM: "DIMM",
}

func mustLayout(order []field, width map[field]int) Layout {
	l, err := NewLayout(order, width)
	if err != nil {
		panic(err)
	}
	return l
}

// mustRegister validates a profile and adds it to the registry.
func mustRegister(p *Profile) *Profile {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	registry[p.Name] = p
	return p
}

// HBM2E is the paper's topology (Figure 1) and the default profile.
// Its layout reproduces the historical fixed constants bit for bit, so
// packed addresses, bank keys and digests are stable across the change to
// profile-derived layouts.
var HBM2E = mustRegister(&Profile{
	Name:     "hbm2e",
	Geometry: DefaultGeometry,
	Layout: mustLayout(hbmOrder, map[field]int{
		fieldNode: 12, fieldNPU: 4, fieldHBM: 2, fieldSID: 1,
		fieldChannel: 3, fieldPseudoChannel: 1, fieldRank: 0, fieldDevice: 0,
		fieldBankGroup: 2, fieldBank: 2, fieldRow: 16, fieldColumn: 8,
	}),
	Levels: []Level{
		LevelNPU, LevelHBM, LevelSID, LevelChannel, LevelPseudoChannel,
		LevelBankGroup, LevelBank, LevelRow,
	},
	TableLevels: []Level{
		LevelNPU, LevelHBM, LevelSID, LevelPseudoChannel,
		LevelBankGroup, LevelBank, LevelRow,
	},
})

// HBM3 widens the stack: 16 channels per SID, 8 bank groups and 64Ki rows
// per bank, per the HBM3 JEDEC organisation.
var HBM3 = mustRegister(&Profile{
	Name: "hbm3",
	Geometry: Geometry{
		Nodes:          128,
		NPUsPerNode:    8,
		HBMsPerNPU:     2,
		SIDsPerHBM:     2,
		ChannelsPerSID: 16,
		PseudoChPerCh:  2,
		BankGroups:     8,
		BanksPerGroup:  4,
		RowsPerBank:    65536,
		ColsPerBank:    128,
	},
	Layout: mustLayout(hbmOrder, map[field]int{
		fieldNode: 12, fieldNPU: 4, fieldHBM: 2, fieldSID: 1,
		fieldChannel: 4, fieldPseudoChannel: 1, fieldRank: 0, fieldDevice: 0,
		fieldBankGroup: 3, fieldBank: 2, fieldRow: 17, fieldColumn: 8,
	}),
	Levels: []Level{
		LevelNPU, LevelHBM, LevelSID, LevelChannel, LevelPseudoChannel,
		LevelBankGroup, LevelBank, LevelRow,
	},
	TableLevels: []Level{
		LevelNPU, LevelHBM, LevelSID, LevelPseudoChannel,
		LevelBankGroup, LevelBank, LevelRow,
	},
})

// ddrLevels is the reported hierarchy for DIMM topologies.
var ddrLevels = []Level{
	LevelNPU, LevelChannel, LevelHBM, LevelRank, LevelDevice,
	LevelBankGroup, LevelBank, LevelRow,
}

// DDR4DIMM models a two-socket DDR4 server fleet: 4 channels per socket,
// 2 DIMMs per channel, 2 ranks per DIMM, 8 x8 devices per rank.
var DDR4DIMM = mustRegister(&Profile{
	Name: "ddr4-dimm",
	Geometry: Geometry{
		Nodes:          128,
		NPUsPerNode:    2, // sockets
		HBMsPerNPU:     2, // DIMMs per channel
		SIDsPerHBM:     1,
		ChannelsPerSID: 4, // channels per socket
		PseudoChPerCh:  1,
		RanksPerModule: 2,
		DevicesPerRank: 8,
		BankGroups:     4,
		BanksPerGroup:  4,
		RowsPerBank:    65536,
		ColsPerBank:    1024,
	},
	Layout: mustLayout(ddrOrder, map[field]int{
		fieldNode: 12, fieldNPU: 1, fieldHBM: 1, fieldSID: 0,
		fieldChannel: 2, fieldPseudoChannel: 0, fieldRank: 1, fieldDevice: 3,
		fieldBankGroup: 2, fieldBank: 2, fieldRow: 16, fieldColumn: 10,
	}),
	Levels:      ddrLevels,
	TableLevels: ddrLevels,
	levelNames:  ddrLevelNames,
})

// DDR5DIMM models a two-socket DDR5 server fleet: 8 channels per socket,
// 8 bank groups, 64Ki rows.
var DDR5DIMM = mustRegister(&Profile{
	Name: "ddr5-dimm",
	Geometry: Geometry{
		Nodes:          128,
		NPUsPerNode:    2, // sockets
		HBMsPerNPU:     2, // DIMMs per channel
		SIDsPerHBM:     1,
		ChannelsPerSID: 8, // channels per socket
		PseudoChPerCh:  1,
		RanksPerModule: 2,
		DevicesPerRank: 8,
		BankGroups:     8,
		BanksPerGroup:  4,
		RowsPerBank:    65536,
		ColsPerBank:    1024,
	},
	Layout: mustLayout(ddrOrder, map[field]int{
		fieldNode: 12, fieldNPU: 1, fieldHBM: 1, fieldSID: 0,
		fieldChannel: 3, fieldPseudoChannel: 0, fieldRank: 1, fieldDevice: 3,
		fieldBankGroup: 3, fieldBank: 2, fieldRow: 16, fieldColumn: 10,
	}),
	Levels:      ddrLevels,
	TableLevels: ddrLevels,
	levelNames:  ddrLevelNames,
})
