// Package memory models a migrating process's address space at page
// granularity: code/heap/stack regions, the residency state machine used
// by the remote-paging machinery, and PageSet, a one-bit-per-page set.
//
// The paper's §2.2 keeps two page tables, and neither is a separate
// structure here. The master page table (MPT) the migrant carries says
// where each page's data is; its content is the migrant's AddressSpace
// residency, and its cost is PTEntrySize bytes per page on the wire at
// the freeze plus cluster.MPTEntryCPU per entry to install it. The home
// page table (HPT) records which pages the origin still stores; it is the
// deputy's stored PageSet (package paging), from which serving a page
// deletes it.
package memory

import "fmt"

// PageSize is the page size in bytes (x86 Linux 2.4, as in the paper).
const PageSize = 4096

// PTEntrySize is the size of one master-page-table entry in bytes. The
// paper states the MPT costs 6 bytes per page (§5.2).
const PTEntrySize = 6

// PageNum identifies a page within a process address space, starting at 0.
type PageNum int64

// RegionKind classifies an address-space region.
type RegionKind uint8

// Region kinds. The paper's lightweight migration ships the currently
// accessed page of each of the three regions.
const (
	RegionCode RegionKind = iota
	RegionHeap
	RegionStack
)

// String returns the conventional region name.
func (k RegionKind) String() string {
	switch k {
	case RegionCode:
		return "code"
	case RegionHeap:
		return "heap"
	case RegionStack:
		return "stack"
	default:
		return fmt.Sprintf("region(%d)", uint8(k))
	}
}

// Region is a contiguous run of pages of one kind.
type Region struct {
	Kind  RegionKind
	Start PageNum // first page number
	Count int64   // number of pages
}

// Layout is an ordered, non-overlapping set of regions starting at page 0.
type Layout struct {
	regions []Region
	total   int64
}

// NewLayout builds a layout with the code region first, then heap, then
// stack, mirroring a simplified Linux process map. Counts must be positive.
func NewLayout(codePages, heapPages, stackPages int64) (Layout, error) {
	if codePages <= 0 || heapPages <= 0 || stackPages <= 0 {
		return Layout{}, fmt.Errorf("memory: layout requires positive page counts (code=%d heap=%d stack=%d)",
			codePages, heapPages, stackPages)
	}
	var l Layout
	next := PageNum(0)
	for _, r := range []Region{
		{Kind: RegionCode, Count: codePages},
		{Kind: RegionHeap, Count: heapPages},
		{Kind: RegionStack, Count: stackPages},
	} {
		r.Start = next
		next += PageNum(r.Count)
		l.regions = append(l.regions, r)
		l.total += r.Count
	}
	return l, nil
}

// MustLayout is NewLayout that panics on error, for tests and fixtures.
func MustLayout(codePages, heapPages, stackPages int64) Layout {
	l, err := NewLayout(codePages, heapPages, stackPages)
	if err != nil {
		panic(err)
	}
	return l
}

// Pages returns the total number of pages in the layout.
func (l Layout) Pages() int64 { return l.total }

// Bytes returns the layout size in bytes.
func (l Layout) Bytes() int64 { return l.total * PageSize }

// Region returns the (single) region of the given kind.
func (l Layout) Region(kind RegionKind) Region {
	for _, r := range l.regions {
		if r.Kind == kind {
			return r
		}
	}
	return Region{}
}

// Valid reports whether p is a page of this layout.
func (l Layout) Valid(p PageNum) bool { return p >= 0 && p < PageNum(l.total) }

// PageState is the migrant-side residency state of a page, driving the
// fault/prefetch state machine.
type PageState uint8

const (
	// StateRemote: the page data is stored at the origin node (HPT) and no
	// request for it is outstanding. Referencing it is a hard fault.
	StateRemote PageState = iota
	// StateInFlight: the page has been requested (demand or prefetch) and
	// the reply has not arrived. Referencing it stalls but sends no new
	// request — a "prevented" fault request in the paper's Figure 7 terms.
	StateInFlight
	// StateArrived: the reply carrying the page has arrived but the page has
	// not been copied into the migrant's address space yet; Algorithm 1
	// installs arrived pages at the next fault. Referencing it is a soft
	// fault (handler cost only).
	StateArrived
	// StateResident: the page is installed in the migrant's address space.
	// References proceed at full speed.
	StateResident
)

// String names the state.
func (s PageState) String() string {
	switch s {
	case StateRemote:
		return "remote"
	case StateInFlight:
		return "in-flight"
	case StateArrived:
		return "arrived"
	case StateResident:
		return "resident"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// AddressSpace tracks per-page residency for one process.
type AddressSpace struct {
	layout Layout
	state  []PageState
}

// NewAddressSpace returns an address space with every page resident (the
// process starts whole at its origin node).
func NewAddressSpace(layout Layout) *AddressSpace {
	n := layout.Pages()
	as := &AddressSpace{
		layout: layout,
		state:  make([]PageState, n),
	}
	for i := range as.state {
		as.state[i] = StateResident
	}
	return as
}

// Pages returns the total page count.
func (as *AddressSpace) Pages() int64 { return as.layout.Pages() }

// State returns the residency state of page p.
func (as *AddressSpace) State(p PageNum) PageState {
	as.check(p)
	return as.state[p]
}

// SetState transitions page p to state s.
func (as *AddressSpace) SetState(p PageNum, s PageState) {
	as.check(p)
	as.state[p] = s
}

// EvictAllToRemote flips every page to StateRemote, modelling the state of
// the migrant right after a lightweight migration (only explicitly
// re-installed pages become resident again).
func (as *AddressSpace) EvictAllToRemote() {
	for i := range as.state {
		as.state[i] = StateRemote
	}
}

func (as *AddressSpace) check(p PageNum) {
	if !as.layout.Valid(p) {
		panic(fmt.Sprintf("memory: page %d outside address space of %d pages", p, as.layout.Pages()))
	}
}
