package main

import (
	"sleds/internal/cache"
	"sleds/internal/core"
	"sleds/internal/experiments"
	"sleds/internal/simclock"
	"sleds/internal/vfs"
)

// pageSize is the simulated VM page size of every workload.
const pageSize = 4096

// subSeed derives the seed of one independent input stream, named by
// salt and idx, from a run's seed through experiments.PointSeed. It is
// marked a seed source itself because seedflow, run over this module,
// does not analyze the simulator's packages and so cannot see
// PointSeed's own marker.
//
//sledlint:seed
func subSeed(seed uint64, salt string, idx int) uint64 {
	return uint64(experiments.PointSeed(int64(seed), "perfbench/"+salt, idx))
}

// machineConfig is the experiments configuration the scan and replay
// workloads boot their machine with: the paper's page size and I/O
// jitter, with the given page-cache size. seed fixes the jitter stream.
func machineConfig(cachePages int, seed uint64) experiments.Config {
	cfg := experiments.QuickConfig()
	cfg.CachePages = cachePages
	cfg.Seed = int64(seed >> 1)
	return cfg
}

// kernelSnap is the program's own statistics at the start of a pass.
type kernelSnap struct {
	rs    vfs.RunStats
	cache cache.Stats
	memo  core.MemoStats
}

func snapKernel(k *vfs.Kernel, tab *core.Table) kernelSnap {
	return kernelSnap{rs: k.RunStats(), cache: k.Cache().Stats(), memo: tab.MemoStats()}
}

// kernelLayers reports what the cache, vfs and sleds-table memo did
// since the snapshot, as per-layer metrics into m.
func kernelLayers(m map[string]float64, k *vfs.Kernel, tab *core.Table, from kernelSnap) {
	rs, cs, memo := k.RunStats(), k.Cache().Stats(), tab.MemoStats()
	sec := func(d simclock.Duration) float64 { return d.Seconds() }

	hits, misses := float64(cs.Hits-from.cache.Hits), float64(cs.Misses-from.cache.Misses)
	m["cache.hits"] = hits
	m["cache.misses"] = misses
	m["cache.hit_ratio"] = ratio(hits, hits+misses)
	m["cache.evictions"] = float64(cs.Evictions - from.cache.Evictions)
	m["cache.dirty_evictions"] = float64(cs.DirtyEvictions - from.cache.DirtyEvictions)

	m["vfs.faults"] = float64(rs.Faults - from.rs.Faults)
	m["vfs.readahead_pages"] = float64(rs.ReadaheadPages - from.rs.ReadaheadPages)
	m["vfs.pages_written"] = float64(rs.PagesWrittenDev - from.rs.PagesWrittenDev)
	m["vfs.iowait_s"] = sec(rs.IOWait - from.rs.IOWait)
	m["vfs.retries"] = float64(rs.Retries - from.rs.Retries)
	m["vfs.retry_wait_s"] = sec(rs.RetryWait - from.rs.RetryWait)
	m["vfs.eios"] = float64(rs.EIOs - from.rs.EIOs)

	mh, mm := float64(memo.Hits-from.memo.Hits), float64(memo.Misses-from.memo.Misses)
	m["core.memo_hits"] = mh
	m["core.memo_misses"] = mm
	m["core.memo_fast_copies"] = float64(memo.FastCopies - from.memo.FastCopies)
	m["core.memo_hit_ratio"] = ratio(mh, mh+mm)
}

// ms converts a virtual duration to milliseconds.
func ms(d simclock.Duration) float64 { return float64(d) / float64(simclock.Millisecond) }
