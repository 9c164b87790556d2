package flashdev

import (
	"bytes"
	"errors"
	"testing"

	"ipa/internal/nand"
)

func scanConfig(plan *nand.FaultPlan) Config {
	cfg := testConfig()
	cfg.Chip.Faults = plan
	return cfg
}

func TestScanPageClassifiesErasedAndTagged(t *testing.T) {
	d := mustDevice(t, testConfig())
	buf := make([]byte, 2048) // zeroed: the scan must overwrite every byte
	scan, err := d.ScanPage(0, 0, buf)
	if err != nil {
		t.Fatalf("scan erased: %v", err)
	}
	if scan.Programmed || scan.Tagged || scan.Torn {
		t.Fatalf("erased page misclassified: %+v", scan)
	}
	if !bytes.Equal(buf, bytes.Repeat([]byte{0xFF}, len(buf))) {
		t.Fatalf("erased page image is not all 0xFF")
	}

	data := pattern(2048, 1)
	cover := 1024
	for i := cover; i < 2048-16; i++ {
		data[i] = 0xFF
	}
	if err := d.ProgramPageTagged(1, 2, data, cover, 16, 77, 12345); err != nil {
		t.Fatalf("program tagged: %v", err)
	}
	scan, err = d.ScanPage(1, 2, buf)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if !scan.Programmed || !scan.Tagged || !scan.BodyValid || scan.Torn {
		t.Fatalf("tagged page misclassified: %+v", scan)
	}
	if scan.LBA != 77 || scan.Seq != 12345 {
		t.Fatalf("tag round trip wrong: lba=%d seq=%d", scan.LBA, scan.Seq)
	}
	if !bytes.Equal(buf, data) {
		t.Fatalf("scan image differs from programmed data")
	}
}

func TestScanPagePreservedByCopyBack(t *testing.T) {
	d := mustDevice(t, testConfig())
	data := pattern(2048, 2)
	cover := 1024
	for i := cover; i < 2048-16; i++ {
		data[i] = 0xFF
	}
	if err := d.ProgramPageTagged(0, 0, data, cover, 16, 9, 42); err != nil {
		t.Fatalf("program: %v", err)
	}
	if _, err := d.ProgramDelta(0, 0, cover, []byte{1, 2, 3}); err != nil {
		t.Fatalf("delta: %v", err)
	}
	if err := d.CopyPage(0, 0, 3, 5); err != nil {
		t.Fatalf("copy: %v", err)
	}
	buf := make([]byte, 2048)
	scan, err := d.ScanPage(3, 5, buf)
	if err != nil {
		t.Fatalf("scan copy: %v", err)
	}
	if !scan.Tagged || scan.LBA != 9 || scan.Seq != 42 || scan.Records != 1 || scan.Torn {
		t.Fatalf("copy-back lost tag/slots: %+v", scan)
	}
}

func TestScanPageDetectsTornProgram(t *testing.T) {
	plan := nand.NewFaultPlan(1, nand.CrashTorn)
	d := mustDevice(t, scanConfig(plan))
	data := pattern(2048, 3)
	err := d.ProgramPageTagged(2, 1, data, 2048, 0, 5, 7)
	if !errors.Is(err, nand.ErrPowerLost) {
		t.Fatalf("expected power loss, got %v", err)
	}
	plan.PowerCycle()
	buf := make([]byte, 2048)
	scan, serr := d.ScanPage(2, 1, buf)
	if serr != nil {
		t.Fatalf("scan: %v", serr)
	}
	if !scan.Programmed {
		// A zero-length tear leaves the page erased; that is fine too.
		return
	}
	if scan.Tagged && scan.BodyValid && !scan.Torn {
		t.Fatalf("torn program classified fully valid: %+v", scan)
	}
}

func TestScanPageDetectsTornDeltaAppend(t *testing.T) {
	plan := nand.NewFaultPlan(0, nand.CrashTorn)
	d := mustDevice(t, scanConfig(plan))
	cover := 1024
	data := pattern(2048, 4)
	for i := cover; i < 2048; i++ {
		data[i] = 0xFF
	}
	if err := d.ProgramPageTagged(1, 1, data, cover, 0, 3, 9); err != nil {
		t.Fatalf("program: %v", err)
	}
	delta := bytes.Repeat([]byte{0x21}, 64)
	plan.Arm(1, nand.CrashTorn)
	plan.SetKinds(nand.OpDeltaProgram)
	_, err := d.ProgramDelta(1, 1, cover, delta)
	if !errors.Is(err, nand.ErrPowerLost) {
		t.Fatalf("expected power loss, got %v", err)
	}
	plan.PowerCycle()
	buf := make([]byte, 2048)
	scan, serr := d.ScanPage(1, 1, buf)
	if serr != nil {
		t.Fatalf("scan: %v", serr)
	}
	if !scan.Tagged || !scan.BodyValid {
		t.Fatalf("initial content must survive a torn append: %+v", scan)
	}
	if scan.Records != 0 {
		t.Fatalf("torn append counted as a valid record: %+v", scan)
	}
	// Depending on the tear length the slot may be fully blank (no OOB
	// bytes persisted) or torn; a persisted OOB prefix must flag Torn.
	t.Logf("torn append scan: %+v", scan)
}

// TestSplitCoverCorrectsInPlace flips one bit in the leading cover and,
// on another page, one in the trailing tail of a split initial ECC; both
// ReadPage and ScanPage must repair the bit directly in the caller's
// buffer. The cover length is not a multiple of 8, so the tail's bits sit
// at unaligned region offsets.
func TestSplitCoverCorrectsInPlace(t *testing.T) {
	const cover, tail = 1021, 19
	for _, off := range []int{517, 2048 - 7} {
		d := mustDevice(t, testConfig())
		data := pattern(2048, 5)
		for i := cover; i < 2048-tail; i++ {
			data[i] = 0xFF
		}
		if data[off] == 0 {
			data[off] = 0x10
		}
		if err := d.ProgramPageTagged(0, 3, data, cover, tail, 9, 1); err != nil {
			t.Fatalf("program: %v", err)
		}
		// Clear the lowest set bit of data[off] behind the device's back.
		flipped := []byte{data[off] & (data[off] - 1)}
		if err := d.chips[0].ProgramPartial(0, 3, off, flipped, 0, nil); err != nil {
			t.Fatalf("disturb: %v", err)
		}
		buf := make([]byte, 2048)
		if err := d.ReadPage(0, 3, buf); err != nil {
			t.Fatalf("offset %d: read: %v", off, err)
		}
		if !bytes.Equal(buf, data) {
			t.Fatalf("offset %d: ReadPage did not repair the flipped bit", off)
		}
		clear(buf)
		scan, err := d.ScanPage(0, 3, buf)
		if err != nil || !scan.BodyValid || scan.Torn {
			t.Fatalf("offset %d: scan %+v, err %v", off, scan, err)
		}
		if !bytes.Equal(buf, data) {
			t.Fatalf("offset %d: ScanPage did not repair the flipped bit", off)
		}
		if got := d.Stats().CorrectedBits; got != 2 {
			t.Fatalf("offset %d: %d corrected bits, want 2", off, got)
		}
	}
}
