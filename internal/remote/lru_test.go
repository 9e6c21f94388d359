package remote

import (
	"container/list"
	"fmt"
	"reflect"
	"testing"

	"sleds/internal/device"
	"sleds/internal/faults"
	"sleds/internal/simclock"
)

// listServer is Server's read path over its first buffer cache: a
// container/list LRU with a map of list elements, kept as the oracle the
// slab LRU must match operation for operation.
type listServer struct {
	cfg      Config
	pageSize int64
	disk     device.Device
	mem      *device.Mem
	cache    *list.List // page numbers (int64), front = MRU
	index    map[int64]*list.Element
	capacity int
}

func newListServer(cfg Config, pageSize int64) *listServer {
	return &listServer{
		cfg:      cfg,
		pageSize: pageSize,
		disk:     device.NewDisk(cfg.ServerDisk),
		mem:      device.NewMem(cfg.ServerMem),
		cache:    list.New(),
		index:    make(map[int64]*list.Element),
		capacity: cfg.ServerCachePages,
	}
}

func (s *listServer) CachedPages() int { return s.cache.Len() }

func (s *listServer) CachedBytes(off, n int64) int64 {
	var cached int64
	end := off + n
	for cur := off; cur < end; {
		page := cur / s.pageSize
		stop := min(end, (page+1)*s.pageSize)
		if s.has(page, false) {
			cached += stop - cur
		}
		cur = stop
	}
	return cached
}

func (s *listServer) has(page int64, touch bool) bool {
	e, ok := s.index[page]
	if ok && touch {
		s.cache.MoveToFront(e)
	}
	return ok
}

func (s *listServer) insert(page int64) {
	if e, ok := s.index[page]; ok {
		s.cache.MoveToFront(e)
		return
	}
	for s.cache.Len() >= s.capacity {
		victim := s.cache.Back()
		s.cache.Remove(victim)
		delete(s.index, victim.Value.(int64))
	}
	s.index[page] = s.cache.PushFront(page)
}

func (s *listServer) ReadThrough(c *simclock.Clock, off, n int64) error {
	c.Advance(s.cfg.RTT)
	end := off + n
	for cur := off; cur < end; {
		page := cur / s.pageSize
		stop := min(end, (page+1)*s.pageSize)
		if s.has(page, true) {
			s.mem.Read(c, cur, stop-cur)
		} else {
			if err := device.ReadErr(s.disk, c, cur, stop-cur); err != nil {
				return err
			}
			s.insert(page)
		}
		cur = stop
	}
	c.Advance(simclock.TransferTime(n, s.cfg.WireBandwidth))
	return nil
}

// order lists the cached pages from MRU to LRU.
func (s *listServer) order() []int64 {
	var out []int64
	for e := s.cache.Front(); e != nil; e = e.Next() {
		out = append(out, e.Value.(int64))
	}
	return out
}

// lruOrder lists the server's cached pages from MRU to LRU, checking the
// back links and the index on the way.
func (s *Server) lruOrder(t *testing.T) []int64 {
	t.Helper()
	var out []int64
	prev := int32(nilNode)
	for i := s.head; i != nilNode; i = s.nodes[i].next {
		n := s.nodes[i]
		if n.prev != prev {
			t.Fatalf("node %d links back to %d, want %d", i, n.prev, prev)
		}
		if s.index[n.page] != i {
			t.Fatalf("index maps page %d to node %d, want %d", n.page, s.index[n.page], i)
		}
		out = append(out, n.page)
		prev = i
	}
	if s.tail != prev {
		t.Fatalf("tail is node %d, want %d", s.tail, prev)
	}
	if len(s.index) != len(out) {
		t.Fatalf("index holds %d pages, list %d", len(s.index), len(out))
	}
	return out
}

// TestServerLRUMatchesListOracle drives the slab LRU and the list oracle
// through identical seeded sequences of read-throughs (unaligned, page-
// straddling, some over a faulting disk) and residency queries, and
// requires the same answers, the same charged time, and the same
// MRU-to-LRU order after every step — so evictions happen in the same
// order too.
func TestServerLRUMatchesListOracle(t *testing.T) {
	const page = 4096
	for seed := uint64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := seed*0x9E3779B97F4A7C15 | 1
			next := func(n int64) int64 {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return int64(rng % uint64(n))
			}
			cfg := DefaultConfig()
			cfg.ServerCachePages = 1 + int(next(24))
			srv, err := NewServer(cfg, page)
			if err != nil {
				t.Fatal(err)
			}
			ref := newListServer(cfg, page)
			if seed%3 == 0 {
				fc := faults.Config{Seed: int64(seed), PFault: 0.2, MaxConsecutive: 2}
				wrapped, _ := faults.Wrap(srv.Disk(), fc)
				srv.ReplaceDisk(wrapped)
				ref.disk, _ = faults.Wrap(ref.disk, fc)
			}
			c, rc := simclock.New(), simclock.New()
			for step := 0; step < 300; step++ {
				off := next(64 * page)
				n := 1 + next(5*page)
				switch next(4) {
				case 0:
					if got, want := srv.CachedBytes(off, n), ref.CachedBytes(off, n); got != want {
						t.Fatalf("step %d: CachedBytes(%d, %d) = %d, want %d", step, off, n, got, want)
					}
				default:
					err, rerr := srv.ReadThrough(c, off, n), ref.ReadThrough(rc, off, n)
					if fmt.Sprint(err) != fmt.Sprint(rerr) {
						t.Fatalf("step %d: ReadThrough(%d, %d) = %v, want %v", step, off, n, err, rerr)
					}
					if c.Now() != rc.Now() {
						t.Fatalf("step %d: clock %v, want %v", step, c.Now(), rc.Now())
					}
				}
				if got, want := srv.CachedPages(), ref.CachedPages(); got != want {
					t.Fatalf("step %d: CachedPages = %d, want %d", step, got, want)
				}
				if got, want := srv.lruOrder(t), ref.order(); !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: LRU order %v, want %v", step, got, want)
				}
			}
			if srv.CachedPages() != cfg.ServerCachePages {
				t.Fatalf("cache of %d pages holds %d after 300 steps: evictions went unexercised",
					cfg.ServerCachePages, srv.CachedPages())
			}
		})
	}
}
