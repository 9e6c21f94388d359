package remote

import (
	"testing"

	"sleds/internal/simclock"
)

// BenchmarkServerReadThrough measures a warm server's read-through of
// 16 KiB records drawn across a file four times the size of its cache —
// the fleet workload's server shape, where most reads evict.
func BenchmarkServerReadThrough(b *testing.B) {
	const recPages, records = 4, 64
	cfg := DefaultConfig()
	cfg.ServerCachePages = recPages * records / 4
	srv, err := NewServer(cfg, testPage)
	if err != nil {
		b.Fatal(err)
	}
	c := simclock.New()
	rng := uint64(0x9E3779B97F4A7C15)
	read := func() {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		off := int64(rng%records) * recPages * testPage
		if err := srv.ReadThrough(c, off, recPages*testPage); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 4*records; i++ {
		read()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		read()
	}
}
