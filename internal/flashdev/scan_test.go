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
