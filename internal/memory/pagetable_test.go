package memory

import (
	"testing"
	"testing/quick"
)

// mapped counts the table's mapped entries.
func mapped(tb *Table) int64 {
	n := int64(0)
	for p := PageNum(0); p < PageNum(tb.Pages()); p++ {
		if tb.Loc(p) != LocUnmapped {
			n++
		}
	}
	return n
}

func TestTableBasics(t *testing.T) {
	tb := NewTable("t", 100, LocOrigin)
	if tb.Pages() != 100 || mapped(tb) != 100 {
		t.Fatalf("pages=%d mapped=%d", tb.Pages(), mapped(tb))
	}
	tb.Set(5, LocMigrant)
	if tb.Loc(5) != LocMigrant {
		t.Fatal("entry not set")
	}
	tb.Set(6, LocUnmapped)
	if mapped(tb) != 99 {
		t.Fatalf("mapped = %d, want 99", mapped(tb))
	}
	tb.Set(6, LocOrigin)
	if mapped(tb) != 100 {
		t.Fatalf("mapped = %d, want 100", mapped(tb))
	}
}

func TestTableUnmappedInitial(t *testing.T) {
	tb := NewTable("t", 10, LocUnmapped)
	if mapped(tb) != 0 {
		t.Fatalf("mapped = %d", mapped(tb))
	}
}

func TestTableBoundsPanic(t *testing.T) {
	tb := NewTable("t", 10, LocOrigin)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range entry did not panic")
		}
	}()
	tb.Loc(10)
}

func TestLocString(t *testing.T) {
	if LocUnmapped.String() != "unmapped" || LocOrigin.String() != "origin" || LocMigrant.String() != "migrant" {
		t.Fatal("loc names wrong")
	}
}

func TestTablePairInitialConsistency(t *testing.T) {
	tp := NewTablePair(50)
	if err := tp.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
}

func TestTransferToMigrant(t *testing.T) {
	tp := NewTablePair(50)
	if err := tp.TransferToMigrant(7); err != nil {
		t.Fatal(err)
	}
	if tp.MPT.Loc(7) != LocMigrant {
		t.Fatal("MPT not updated")
	}
	if tp.HPT.Loc(7) != LocUnmapped {
		t.Fatal("origin copy not deleted (paper §2.2)")
	}
	if err := tp.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
	// Double transfer is a protocol violation.
	if err := tp.TransferToMigrant(7); err == nil {
		t.Fatal("double transfer accepted")
	}
}

// TestTablePairProtocolProperty: any sequence of transfers preserves the
// MPT/HPT consistency invariant, and only pages still at the origin
// transfer.
func TestTablePairProtocolProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		const pages = 32
		tp := NewTablePair(pages)
		for _, op := range ops {
			p := PageNum(op % pages)
			atOrigin := tp.MPT.Loc(p) == LocOrigin
			if err := tp.TransferToMigrant(p); (err == nil) != atOrigin {
				return false
			}
			if tp.CheckConsistent() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckConsistentDetectsViolation(t *testing.T) {
	tp := NewTablePair(10)
	tp.HPT.Set(2, LocUnmapped) // break invariant behind the protocol's back
	if err := tp.CheckConsistent(); err == nil {
		t.Fatal("violation not detected")
	}
	tp2 := &TablePair{MPT: NewTable("m", 5, LocOrigin), HPT: NewTable("h", 6, LocOrigin)}
	if err := tp2.CheckConsistent(); err == nil {
		t.Fatal("size mismatch not detected")
	}
}
