package bench

import (
	"fmt"
	"testing"
)

// chipTestOptions is a shrunken chips run that still forces Flash traffic:
// the working set is several times the buffer pool.
func chipTestOptions(tb testing.TB, chips int) Options {
	return quickOptions(tb, "chips", Options{Chips: chips, Threads: 4, Tuples: 4096, Ops: 1200})
}

// TestChipScalingImprovesVirtualThroughput is the acceptance check of the
// chip-parallel flash stack: the same work finishes in less virtual device
// time on a 4-chip device than on a single chip, because the device clock
// is the busiest chip's clock and the load stripes across the partitions.
func TestChipScalingImprovesVirtualThroughput(t *testing.T) {
	var rows []ChipsRow
	for _, chips := range []int{1, 4} {
		res, err := Chips(chipTestOptions(t, chips))
		if err != nil {
			t.Fatalf("Chips: %v", err)
		}
		rows = append(rows, res.Rows[0])
	}
	one, four := rows[0], rows[1]
	if four.Virtual >= one.Virtual*7/10 {
		t.Fatalf("4 chips should cut virtual time well below 1 chip: 1-chip=%s 4-chip=%s",
			one.Virtual, four.Virtual)
	}
	if speedup := four.VirtualTPS / one.VirtualTPS; speedup < 1.5 {
		t.Fatalf("4-chip virtual throughput speedup %.2fx, want >= 1.5x", speedup)
	}
	// The stripe must actually use all chips.
	if four.Balance < 0.25 {
		t.Fatalf("chip load badly skewed: balance %.2f", four.Balance)
	}
}

// BenchmarkChipScaling reports wall and virtual throughput for a ladder of
// chip counts (run with -benchtime to extend the ladder's op count).
func BenchmarkChipScaling(b *testing.B) {
	for _, chips := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("chips-%d", chips), func(b *testing.B) {
			o := chipTestOptions(b, chips)
			o.Ops = 400 * b.N
			res, err := Chips(o)
			if err != nil {
				b.Fatalf("Chips: %v", err)
			}
			row := res.Rows[0]
			b.ReportMetric(row.WallPerSec, "wall-tps")
			b.ReportMetric(row.VirtualTPS, "virtual-tps")
		})
	}
}
