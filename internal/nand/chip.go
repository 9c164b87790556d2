package nand

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// Errors returned by chip operations.
var (
	// ErrOverwriteViolation is returned by Program when the new data would
	// require a 0->1 bit transition (charge removal) and the chip is
	// configured with StrictOverwrite.
	ErrOverwriteViolation = errors.New("nand: program requires 0->1 transition (erase needed)")
	// ErrNOPExceeded is returned when a page has exhausted its partial
	// program budget.
	ErrNOPExceeded = errors.New("nand: partial program budget (NOP) exceeded")
	// ErrWornOut is returned when a block has exceeded its endurance.
	ErrWornOut = errors.New("nand: block exceeded endurance (worn out)")
	// ErrOutOfRange is returned for addresses outside the chip geometry.
	ErrOutOfRange = errors.New("nand: address out of range")
	// ErrBadLength is returned for buffers that do not fit the geometry.
	ErrBadLength = errors.New("nand: buffer length out of range")
)

// PageState describes the lifecycle state of a Flash page.
type PageState int

const (
	// PageErased means the page has not been programmed since the last
	// block erase; it reads as all 0xFF.
	PageErased PageState = iota
	// PageProgrammed means the page holds data.
	PageProgrammed
)

// page is the state of one physical Flash page.
type page struct {
	data     []byte // nil while erased
	oob      []byte // nil while erased
	state    PageState
	programs int // number of program operations since the last erase
}

// block is one erase unit.
type block struct {
	pages      []page
	eraseCount int
	wornOut    bool
}

// Stats aggregates the raw operation counters of a chip.
type Stats struct {
	PageReads        uint64
	PagePrograms     uint64 // full page programs
	PartialPrograms  uint64 // partial (in-place append) programs
	BlockErases      uint64
	InterferenceBits uint64 // bits flipped by injected program interference
	OverwriteDenied  uint64 // programs rejected due to 0->1 transitions
}

// Chip simulates a single NAND Flash chip.
type Chip struct {
	mu     sync.Mutex
	cfg    Config
	blocks []block
	stats  Stats
	rng    *prng
}

// NewChip creates a chip in the fully erased state.
func NewChip(cfg Config) (*Chip, error) {
	if err := cfg.Geometry.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	c := &Chip{
		cfg:    cfg,
		blocks: make([]block, cfg.Geometry.Blocks),
		rng:    newPRNG(uint64(cfg.Seed) + 0x9e3779b97f4a7c15),
	}
	for i := range c.blocks {
		c.blocks[i].pages = make([]page, cfg.Geometry.PagesPerBlock)
	}
	return c, nil
}

// Config returns the configuration the chip was created with (with defaults
// applied).
func (c *Chip) Config() Config { return c.cfg }

// Geometry returns the chip geometry.
func (c *Chip) Geometry() Geometry { return c.cfg.Geometry }

// Stats returns a snapshot of the operation counters.
func (c *Chip) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// EraseCount returns the number of erase cycles block b has seen.
func (c *Chip) EraseCount(b int) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if b < 0 || b >= len(c.blocks) {
		return 0, ErrOutOfRange
	}
	return c.blocks[b].eraseCount, nil
}

// MaxEraseCount returns the highest erase count across all blocks.
func (c *Chip) MaxEraseCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	max := 0
	for i := range c.blocks {
		if c.blocks[i].eraseCount > max {
			max = c.blocks[i].eraseCount
		}
	}
	return max
}

// TotalErases returns the sum of erase counts across all blocks.
func (c *Chip) TotalErases() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum uint64
	for i := range c.blocks {
		sum += uint64(c.blocks[i].eraseCount)
	}
	return sum
}

// PageInfo describes the observable state of a page.
type PageInfo struct {
	State    PageState
	Programs int
}

// PageStatus returns the lifecycle state of the addressed page.
func (c *Chip) PageStatus(b, p int) (PageInfo, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	pg, err := c.page(b, p)
	if err != nil {
		return PageInfo{}, err
	}
	return PageInfo{State: pg.state, Programs: pg.programs}, nil
}

func (c *Chip) page(b, p int) (*page, error) {
	if b < 0 || b >= len(c.blocks) {
		return nil, fmt.Errorf("%w: block %d", ErrOutOfRange, b)
	}
	if p < 0 || p >= c.cfg.Geometry.PagesPerBlock {
		return nil, fmt.Errorf("%w: page %d", ErrOutOfRange, p)
	}
	return &c.blocks[b].pages[p], nil
}

// ReadPage copies the data and OOB contents of the addressed page into the
// supplied buffers. Buffers may be nil to skip the respective area; a
// shorter buffer receives a prefix. Erased pages read as 0xFF.
func (c *Chip) ReadPage(b, p int, data, oob []byte) error {
	if c.cfg.Faults != nil {
		if err := c.cfg.Faults.alive(); err != nil {
			return err
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	pg, err := c.page(b, p)
	if err != nil {
		return err
	}
	if len(data) > c.cfg.Geometry.PageSize || len(oob) > c.cfg.Geometry.OOBSize {
		return ErrBadLength
	}
	c.stats.PageReads++
	fillRead(data, pg.data)
	fillRead(oob, pg.oob)
	return nil
}

// fillRead copies src into dst, padding with 0xFF where src is shorter or nil.
func fillRead(dst, src []byte) {
	if dst == nil {
		return
	}
	n := copy(dst, src)
	for i := n; i < len(dst); i++ {
		dst[i] = 0xFF
	}
}

// Program writes a full page (data and OOB). The operation obeys the
// physics of NAND programming: every bit may only stay or transition from
// 1 to 0. Programming an already programmed page is allowed as long as the
// constraint holds and the NOP budget is not exhausted; this is the
// mechanism In-Place Appends builds on.
func (c *Chip) Program(b, p int, data, oob []byte) error {
	return c.program(b, p, 0, data, 0, oob, false)
}

// ProgramPartial programs only the byte range [dataOff, dataOff+len(data))
// of the page and [oobOff, oobOff+len(oob)) of the OOB area, leaving all
// other cells untouched. This models the append of a delta record to the
// reserved area of an already programmed Flash page.
func (c *Chip) ProgramPartial(b, p, dataOff int, data []byte, oobOff int, oob []byte) error {
	return c.program(b, p, dataOff, data, oobOff, oob, true)
}

func (c *Chip) program(b, p, dataOff int, data []byte, oobOff int, oob []byte, partial bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	pg, err := c.page(b, p)
	if err != nil {
		return err
	}
	blk := &c.blocks[b]
	g := c.cfg.Geometry
	if dataOff < 0 || dataOff+len(data) > g.PageSize {
		return fmt.Errorf("%w: data [%d,%d)", ErrBadLength, dataOff, dataOff+len(data))
	}
	if oobOff < 0 || oobOff+len(oob) > g.OOBSize {
		return fmt.Errorf("%w: oob [%d,%d)", ErrBadLength, oobOff, oobOff+len(oob))
	}
	act := actProceed
	if c.cfg.Faults != nil {
		op := OpProgram
		if partial {
			op = OpDeltaProgram
		}
		act, err = c.cfg.Faults.step(op)
		if err != nil {
			return err
		}
	}
	// The refusals below come before any cell changes, whether or not the
	// power fails during the command: a program the device refuses leaves
	// the page untouched, so a torn one must not land a prefix either.
	if blk.wornOut {
		return fmt.Errorf("%w: block %d", ErrWornOut, b)
	}
	if pg.programs >= c.cfg.MaxProgramsPerPage {
		return fmt.Errorf("%w: page %d/%d has %d programs", ErrNOPExceeded, b, p, pg.programs)
	}
	// Materialise the page arrays lazily (erased pages hold no storage).
	if pg.data == nil {
		pg.data = erasedBytes(g.PageSize)
	}
	if pg.oob == nil && g.OOBSize > 0 {
		pg.oob = erasedBytes(g.OOBSize)
	}
	// Check the bit-clear-only constraint before touching any cell so the
	// operation is atomic under StrictOverwrite.
	if c.cfg.StrictOverwrite {
		if violatesOverwrite(pg.data[dataOff:dataOff+len(data)], data) ||
			violatesOverwrite(pg.oob[oobOff:oobOff+len(oob)], oob) {
			c.stats.OverwriteDenied++
			return fmt.Errorf("%w: block %d page %d", ErrOverwriteViolation, b, p)
		}
	}
	if act == actTorn {
		return c.tornProgram(pg, dataOff, data, oobOff, oob, partial)
	}
	programBits(pg.data[dataOff:dataOff+len(data)], data)
	if len(oob) > 0 {
		programBits(pg.oob[oobOff:oobOff+len(oob)], oob)
	}
	pg.state = PageProgrammed
	pg.programs++
	if partial {
		c.stats.PartialPrograms++
	} else {
		c.stats.PagePrograms++
	}
	// Program interference: re-programming an MLC page may disturb the
	// page sharing its wordline if that page already carries data.
	if c.cfg.Cell == MLC && pg.programs > 1 && c.cfg.InterferenceProb > 0 {
		c.maybeDisturbPaired(b, p)
	}
	if act == actAfter {
		// The cells hold the full program, but power died before the
		// device could acknowledge: the host sees a failed command.
		return ErrPowerLost
	}
	return nil
}

// tornProgram applies a power-cut-interrupted program: deterministic
// prefixes of the data and OOB bytes reach the cells (with the physical AND
// semantics), everything else stays untouched. The caller holds the chip
// mutex and has already applied the device's refusals.
func (c *Chip) tornProgram(pg *page, dataOff int, data []byte, oobOff int, oob []byte, partial bool) error {
	g := c.cfg.Geometry
	kd := c.cfg.Faults.tornLen(len(data))
	ko := c.cfg.Faults.tornLen(len(oob))
	if kd == 0 && ko == 0 {
		return ErrPowerLost
	}
	if pg.data == nil {
		pg.data = erasedBytes(g.PageSize)
	}
	if pg.oob == nil && g.OOBSize > 0 {
		pg.oob = erasedBytes(g.OOBSize)
	}
	programBits(pg.data[dataOff:dataOff+kd], data[:kd])
	if ko > 0 {
		programBits(pg.oob[oobOff:oobOff+ko], oob[:ko])
	}
	pg.state = PageProgrammed
	pg.programs++
	if partial {
		c.stats.PartialPrograms++
	} else {
		c.stats.PagePrograms++
	}
	return ErrPowerLost
}

// violatesOverwrite reports whether programming new over old would require
// any 0->1 transition: a 1 bit in new where old already has a 0 bit. old
// must be at least as long as new. It compares 64 bits at a time.
func violatesOverwrite(old, new []byte) bool {
	old = old[:len(new)]
	for len(new) >= 8 {
		if binary.LittleEndian.Uint64(new)&^binary.LittleEndian.Uint64(old) != 0 {
			return true
		}
		old, new = old[8:], new[8:]
	}
	for i := range new {
		if new[i]&^old[i] != 0 {
			return true
		}
	}
	return false
}

// programBits applies the physical programming rule: the stored value is
// the bitwise AND of the existing charge state and the new data. It works
// 64 bits at a time.
func programBits(dst, src []byte) {
	dst = dst[:len(src)]
	for len(src) >= 8 {
		binary.LittleEndian.PutUint64(dst, binary.LittleEndian.Uint64(dst)&binary.LittleEndian.Uint64(src))
		dst, src = dst[8:], src[8:]
	}
	for i := range src {
		dst[i] &= src[i]
	}
}

// maybeDisturbPaired injects a program-interference fault into the page
// paired with (b, p) with the configured probability. Interference only
// adds charge, i.e. flips a 1 bit to 0. Re-programming an LSB page moves
// charges in much smaller ISPP steps than programming the MSB page of the
// wordline, so its coupling on the neighbour is an order of magnitude
// weaker — this is what makes the paper's odd-MLC mode safe in practice.
func (c *Chip) maybeDisturbPaired(b, p int) {
	pp := PairedPage(p)
	if pp == p || pp >= c.cfg.Geometry.PagesPerBlock {
		return
	}
	paired := &c.blocks[b].pages[pp]
	if paired.state != PageProgrammed || paired.data == nil {
		return
	}
	prob := c.cfg.InterferenceProb
	if IsLSBPage(c.cfg.Cell, p) {
		prob /= 10
	}
	if c.rng.float64() >= prob {
		return
	}
	// Pick a random 1 bit and clear it.
	byteIdx := int(c.rng.next() % uint64(len(paired.data)))
	for tries := 0; tries < len(paired.data); tries++ {
		i := (byteIdx + tries) % len(paired.data)
		if paired.data[i] == 0 {
			continue
		}
		bit := uint(c.rng.next() % 8)
		for b := uint(0); b < 8; b++ {
			mask := byte(1) << ((bit + b) % 8)
			if paired.data[i]&mask != 0 {
				paired.data[i] &^= mask
				c.stats.InterferenceBits++
				return
			}
		}
	}
}

// Erase resets every page of the block to the erased state and increments
// the block's wear counter. Erasing past the endurance limit marks the
// block as worn out and fails.
func (c *Chip) Erase(b int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if b < 0 || b >= len(c.blocks) {
		return fmt.Errorf("%w: block %d", ErrOutOfRange, b)
	}
	blk := &c.blocks[b]
	act := actProceed
	if c.cfg.Faults != nil {
		var err error
		act, err = c.cfg.Faults.step(OpErase)
		if err != nil {
			return err
		}
	}
	if blk.wornOut {
		return fmt.Errorf("%w: block %d", ErrWornOut, b)
	}
	pages := len(blk.pages)
	if act == actTorn {
		// An interrupted erase resets only a prefix of the block's pages;
		// the rest keep their (stale) contents. The wear still happened.
		pages = c.cfg.Faults.tornLen(pages)
	}
	for i := 0; i < pages; i++ {
		blk.pages[i] = page{}
	}
	blk.eraseCount++
	c.stats.BlockErases++
	if blk.eraseCount >= c.cfg.EnduranceCycles {
		blk.wornOut = true
	}
	if act != actProceed {
		return ErrPowerLost
	}
	return nil
}

// WornOut reports whether block b has exceeded its endurance.
func (c *Chip) WornOut(b int) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if b < 0 || b >= len(c.blocks) {
		return false, ErrOutOfRange
	}
	return c.blocks[b].wornOut, nil
}

// erasedBytes returns a fresh buffer in the erased (all 0xFF) state.
func erasedBytes(n int) []byte {
	return bytes.Repeat([]byte{0xFF}, n)
}

// prng is a small deterministic xorshift* generator used for fault
// injection so experiments are reproducible. math/rand is avoided to keep
// the chip's behaviour stable across Go releases.
type prng struct{ state uint64 }

func newPRNG(seed uint64) *prng {
	if seed == 0 {
		seed = 0x853c49e6748fea9b
	}
	return &prng{state: seed}
}

func (r *prng) next() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

func (r *prng) float64() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}
