package memory

import "fmt"

// Loc records, in a page-table entry, where a page's data lives.
type Loc uint8

const (
	// LocUnmapped: the page is not mapped in the address space.
	LocUnmapped Loc = iota
	// LocOrigin: the data is stored at the process's origin (home) node.
	LocOrigin
	// LocMigrant: the data is stored at the migrant's current node.
	LocMigrant
)

// String names the location.
func (l Loc) String() string {
	switch l {
	case LocUnmapped:
		return "unmapped"
	case LocOrigin:
		return "origin"
	case LocMigrant:
		return "migrant"
	default:
		return fmt.Sprintf("loc(%d)", uint8(l))
	}
}

// Table is a page table: one entry per page of the layout. It serves as
// both the MPT (at the migrant) and the HPT (at the origin); the TablePair
// wrapper enforces the update protocol between the two.
type Table struct {
	name    string
	entries []Loc
}

// NewTable returns a table for n pages with every page mapped at the given
// initial location.
func NewTable(name string, n int64, initial Loc) *Table {
	t := &Table{name: name, entries: make([]Loc, n)}
	for i := range t.entries {
		t.entries[i] = initial
	}
	return t
}

// Pages returns the number of entries.
func (t *Table) Pages() int64 { return int64(len(t.entries)) }

// Loc returns the entry for page p.
func (t *Table) Loc(p PageNum) Loc {
	t.check(p)
	return t.entries[p]
}

// Set overwrites the entry for page p.
func (t *Table) Set(p PageNum, l Loc) {
	t.check(p)
	t.entries[p] = l
}

func (t *Table) check(p PageNum) {
	if p < 0 || int64(p) >= int64(len(t.entries)) {
		panic(fmt.Sprintf("memory: page %d outside table %q of %d entries", p, t.name, len(t.entries)))
	}
}

// TablePair binds a migrant's MPT to the origin's HPT and implements the
// transfer rule of the paper's §2.2 update protocol: a page transferred to
// the migrant deletes the origin copy and updates the HPT, and its MPT
// entry flips to "migrant". The modelled kernels neither create nor unmap
// pages after migration, so the protocol's other two rules are not needed.
type TablePair struct {
	MPT *Table // at the migrant: where each page's data is
	HPT *Table // at the origin: which pages the origin still stores
}

// NewTablePair models the instant after migration: every mapped page's data
// is still at the origin, so the MPT maps all pages to LocOrigin and the
// HPT records the origin storing all of them.
func NewTablePair(n int64) *TablePair {
	return &TablePair{
		MPT: NewTable("mpt", n, LocOrigin),
		HPT: NewTable("hpt", n, LocOrigin),
	}
}

// TransferToMigrant records that page p's data moved origin→migrant: the
// origin copy is deleted (paper: "its copy in the original node will be
// deleted and the HPT will be updated accordingly").
func (tp *TablePair) TransferToMigrant(p PageNum) error {
	if tp.MPT.Loc(p) != LocOrigin {
		return fmt.Errorf("memory: transfer of page %d not stored at origin (mpt=%v)", p, tp.MPT.Loc(p))
	}
	tp.MPT.Set(p, LocMigrant)
	tp.HPT.Set(p, LocUnmapped)
	return nil
}

// CheckConsistent verifies the cross-table invariant: the origin stores
// exactly the mapped pages whose MPT entry says "origin". It returns the
// first violation found.
func (tp *TablePair) CheckConsistent() error {
	if tp.MPT.Pages() != tp.HPT.Pages() {
		return fmt.Errorf("memory: table size mismatch mpt=%d hpt=%d", tp.MPT.Pages(), tp.HPT.Pages())
	}
	for p := PageNum(0); p < PageNum(tp.MPT.Pages()); p++ {
		atOrigin := tp.MPT.Loc(p) == LocOrigin
		hptHas := tp.HPT.Loc(p) != LocUnmapped
		if atOrigin != hptHas {
			return fmt.Errorf("memory: page %d inconsistent: mpt=%v hpt=%v", p, tp.MPT.Loc(p), tp.HPT.Loc(p))
		}
	}
	return nil
}
