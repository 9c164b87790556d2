package nand

import (
	"bytes"
	"errors"
	"testing"
)

func faultChip(t *testing.T, plan *FaultPlan) *Chip {
	t.Helper()
	cfg := Config{
		Geometry:        Geometry{Blocks: 4, PagesPerBlock: 8, PageSize: 256, OOBSize: 32},
		Cell:            SLC,
		StrictOverwrite: true,
		Seed:            5,
		Faults:          plan,
	}
	c, err := NewChip(cfg)
	if err != nil {
		t.Fatalf("NewChip: %v", err)
	}
	return c
}

func TestFaultPlanCountsOps(t *testing.T) {
	plan := NewFaultPlan(0, CrashBefore)
	c := faultChip(t, plan)
	data := make([]byte, 256)
	for i := 0; i < 3; i++ {
		if err := c.Program(0, i, data, nil); err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
	}
	if err := c.Erase(1); err != nil {
		t.Fatalf("erase: %v", err)
	}
	if got := plan.Ops(); got != 4 {
		t.Fatalf("counted %d ops, want 4", got)
	}
	if plan.Tripped() || plan.Dead() {
		t.Fatalf("passive plan must never fire")
	}
}

func TestCrashBeforeLeavesNoTrace(t *testing.T) {
	plan := NewFaultPlan(2, CrashBefore)
	c := faultChip(t, plan)
	data := bytes.Repeat([]byte{0xA0}, 256)
	if err := c.Program(0, 0, data, nil); err != nil {
		t.Fatalf("first program: %v", err)
	}
	if err := c.Program(0, 1, data, nil); !errors.Is(err, ErrPowerLost) {
		t.Fatalf("expected power loss, got %v", err)
	}
	// The faulted page must stay erased; further operations stay dead.
	if err := c.Program(0, 2, data, nil); !errors.Is(err, ErrPowerLost) {
		t.Fatalf("chip must be dead, got %v", err)
	}
	if err := c.ReadPage(0, 0, make([]byte, 256), nil); !errors.Is(err, ErrPowerLost) {
		t.Fatalf("reads must fail while dead, got %v", err)
	}
	plan.PowerCycle()
	got := make([]byte, 256)
	if err := c.ReadPage(0, 1, got, nil); err != nil {
		t.Fatalf("read after power cycle: %v", err)
	}
	for _, b := range got {
		if b != 0xFF {
			t.Fatalf("crash-before page must read erased")
		}
	}
}

func TestTornProgramPersistsPrefixOnly(t *testing.T) {
	plan := NewFaultPlan(1, CrashTorn)
	c := faultChip(t, plan)
	data := bytes.Repeat([]byte{0x00}, 256)
	oob := bytes.Repeat([]byte{0x00}, 32)
	if err := c.Program(2, 3, data, oob); !errors.Is(err, ErrPowerLost) {
		t.Fatalf("torn program must report power loss, got %v", err)
	}
	plan.PowerCycle()
	gotData := make([]byte, 256)
	gotOOB := make([]byte, 32)
	if err := c.ReadPage(2, 3, gotData, gotOOB); err != nil {
		t.Fatalf("read: %v", err)
	}
	// The persisted bytes must be a strict prefix pattern: some prefix is
	// programmed (0x00), the rest still erased (0xFF), never interleaved.
	checkPrefix := func(name string, b []byte) int {
		n := 0
		for n < len(b) && b[n] == 0x00 {
			n++
		}
		for i := n; i < len(b); i++ {
			if b[i] != 0xFF {
				t.Fatalf("%s: non-prefix tear at byte %d", name, i)
			}
		}
		return n
	}
	nd := checkPrefix("data", gotData)
	no := checkPrefix("oob", gotOOB)
	if nd == len(gotData) && no == len(gotOOB) {
		t.Fatalf("torn program persisted everything (lengths should be partial for this seed)")
	}
}

// TestTornRefusedProgramLeavesPageUntouched: a re-program the device
// refuses (it would need 0->1 transitions) changes no cell, and power
// failing during it must not land a prefix of it either. The conventional-
// SSD write path relies on the refusal to fall back to an out-of-place
// write; a torn prefix here used to corrupt a page whose previous image
// was still the only durable copy.
func TestTornRefusedProgramLeavesPageUntouched(t *testing.T) {
	plan := NewFaultPlan(0, CrashBefore) // passive for the first program
	c := faultChip(t, plan)
	first := bytes.Repeat([]byte{0x0F}, 256)
	if err := c.Program(0, 0, first, nil); err != nil {
		t.Fatalf("program: %v", err)
	}
	plan.Arm(1, CrashTorn)
	if err := c.Program(0, 0, bytes.Repeat([]byte{0xF0}, 256), nil); err == nil {
		t.Fatalf("violating torn re-program succeeded")
	}
	if !plan.Tripped() {
		t.Fatalf("the refused program must still count as the fault point")
	}
	plan.PowerCycle()
	got := make([]byte, 256)
	if err := c.ReadPage(0, 0, got, nil); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, first) {
		t.Fatalf("refused torn program changed the page")
	}
}

func TestCrashAfterPersistsEverything(t *testing.T) {
	plan := NewFaultPlan(1, CrashAfter)
	c := faultChip(t, plan)
	data := bytes.Repeat([]byte{0x42 & 0x0F}, 256)
	if err := c.Program(1, 1, data, nil); !errors.Is(err, ErrPowerLost) {
		t.Fatalf("crash-after must report power loss, got %v", err)
	}
	plan.PowerCycle()
	got := make([]byte, 256)
	if err := c.ReadPage(1, 1, got, nil); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("crash-after page must hold the full program")
	}
}

func TestTornEraseResetsPrefixOfPages(t *testing.T) {
	plan := NewFaultPlan(0, CrashBefore) // passive during setup
	c := faultChip(t, plan)
	data := bytes.Repeat([]byte{0x00}, 256)
	for p := 0; p < 8; p++ {
		if err := c.Program(0, p, data, nil); err != nil {
			t.Fatalf("setup program: %v", err)
		}
	}
	plan.Arm(1, CrashTorn)
	plan.SetKinds(OpErase)
	if err := c.Erase(0); !errors.Is(err, ErrPowerLost) {
		t.Fatalf("torn erase must report power loss, got %v", err)
	}
	plan.PowerCycle()
	erased, kept := 0, 0
	for p := 0; p < 8; p++ {
		info, err := c.PageStatus(0, p)
		if err != nil {
			t.Fatalf("status: %v", err)
		}
		if info.State == PageErased {
			erased++
			if kept > 0 {
				t.Fatalf("erase tear must be a page prefix")
			}
		} else {
			kept++
		}
	}
	if n, err := c.EraseCount(0); err != nil || n != 1 {
		t.Fatalf("interrupted erase still wears the block: count=%d err=%v", n, err)
	}
	t.Logf("torn erase reset %d of 8 pages", erased)
}

func TestLogFlushPoint(t *testing.T) {
	plan := NewFaultPlan(2, CrashBefore)
	plan.SetKinds(OpLogFlush)
	if err := plan.LogFlushPoint(); err != nil {
		t.Fatalf("first flush: %v", err)
	}
	if err := plan.LogFlushPoint(); !errors.Is(err, ErrPowerLost) {
		t.Fatalf("second flush must fail, got %v", err)
	}
	if err := plan.LogFlushPoint(); !errors.Is(err, ErrPowerLost) {
		t.Fatalf("dead plan must keep failing, got %v", err)
	}
}
