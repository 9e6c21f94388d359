package remote

import (
	"fmt"

	"sleds/internal/device"
	"sleds/internal/simclock"
)

// Server models the file server proper — its disk, its memory, and its
// buffer cache — separated from the Mount so the same machinery can back
// a single client mount or one replica in a fleet of servers. All costs
// are charged against the caller's clock: the server owns no time of its
// own, exactly as the characterization devices do.
//
// The disk starts life as the *device.Disk built from Config.ServerDisk
// and may be swapped for a wrapper (a fault injector) with ReplaceDisk;
// every internal access goes through the fallible device helpers, so a
// fault injected on the server disk surfaces as an error to the client
// rather than being silently absorbed.
type Server struct {
	cfg      Config
	pageSize int64

	disk device.Device // the server's disk, possibly wrapped by an injector
	mem  *device.Mem

	// server buffer cache, keyed by server-disk page: an LRU list threaded
	// through a slab of nodes, linked by slab index. The slab grows on
	// demand up to capacity; after that an insert recycles the LRU node,
	// so a warm server allocates nothing per read.
	nodes      []lruNode
	index      map[int64]int32 // page -> node
	head, tail int32           // MRU and LRU nodes; nilNode when empty
	capacity   int
}

// lruNode is one page resident in the server's cache.
type lruNode struct {
	page       int64
	prev, next int32 // toward the MRU and LRU ends; nilNode at either end
}

// nilNode terminates the LRU list.
const nilNode = -1

// NewServer builds a server from cfg. The caller fixes ServerDisk.ID and
// ServerDisk.Name before calling: the disk is constructed exactly as
// configured, so a registered characterization device and the server's
// own disk agree on identity (faults report the right device).
func NewServer(cfg Config, pageSize int64) (*Server, error) {
	if cfg.WireBandwidth <= 0 {
		return nil, fmt.Errorf("remote: non-positive wire bandwidth")
	}
	if cfg.ServerCachePages <= 0 {
		return nil, fmt.Errorf("remote: server cache of %d pages", cfg.ServerCachePages)
	}
	if pageSize <= 0 {
		return nil, fmt.Errorf("remote: non-positive page size %d", pageSize)
	}
	return &Server{
		cfg:      cfg,
		pageSize: pageSize,
		disk:     device.NewDisk(cfg.ServerDisk),
		mem:      device.NewMem(cfg.ServerMem),
		index:    make(map[int64]int32),
		head:     nilNode,
		tail:     nilNode,
		capacity: cfg.ServerCachePages,
	}, nil
}

// Disk returns the server's disk as currently wired (the raw disk, or
// whatever wrapper ReplaceDisk installed).
func (s *Server) Disk() device.Device { return s.disk }

// ReplaceDisk swaps the server's disk for d — the hook for stacking a
// fault injector under the server, mirroring Registry.Replace for
// registered devices. Returns the previous disk so callers can unwrap.
func (s *Server) ReplaceDisk(d device.Device) device.Device {
	old := s.disk
	s.disk = d
	return old
}

// CachedPages reports how many pages the server currently caches.
func (s *Server) CachedPages() int { return len(s.nodes) }

// CachedBytes reports how many bytes of [off, off+n) the server's cache
// holds right now, without touching recency — the basis for a client-side
// estimate of what a read through this server would cost.
func (s *Server) CachedBytes(off, n int64) int64 {
	var cached int64
	end := off + n
	for cur := off; cur < end; {
		page := cur / s.pageSize
		pageEnd := (page + 1) * s.pageSize
		stop := end
		if stop > pageEnd {
			stop = pageEnd
		}
		if s.has(page, false) {
			cached += stop - cur
		}
		cur = stop
	}
	return cached
}

// has reports and optionally refreshes residency of a server page.
func (s *Server) has(page int64, touch bool) bool {
	i, ok := s.index[page]
	if ok && touch {
		s.moveToFront(i)
	}
	return ok
}

// insert adds a page to the server cache, evicting LRU.
func (s *Server) insert(page int64) {
	if i, ok := s.index[page]; ok {
		s.moveToFront(i)
		return
	}
	var i int32
	if len(s.nodes) < s.capacity {
		i = int32(len(s.nodes))
		s.nodes = append(s.nodes, lruNode{})
	} else {
		// Full: the LRU node becomes the new page's.
		i = s.tail
		delete(s.index, s.nodes[i].page)
		s.unlink(i)
	}
	s.nodes[i].page = page
	s.index[page] = i
	s.pushFront(i)
}

// moveToFront makes node i the MRU.
func (s *Server) moveToFront(i int32) {
	if s.head != i {
		s.unlink(i)
		s.pushFront(i)
	}
}

// unlink detaches node i from the list, leaving its own links stale.
func (s *Server) unlink(i int32) {
	n := &s.nodes[i]
	if n.prev != nilNode {
		s.nodes[n.prev].next = n.next
	} else {
		s.head = n.next
	}
	if n.next != nilNode {
		s.nodes[n.next].prev = n.prev
	} else {
		s.tail = n.prev
	}
}

// pushFront links detached node i in as the MRU.
func (s *Server) pushFront(i int32) {
	n := &s.nodes[i]
	n.prev, n.next = nilNode, s.head
	if s.head != nilNode {
		s.nodes[s.head].prev = i
	} else {
		s.tail = i
	}
	s.head = i
}

// ReadThrough charges one remote read of [off, off+n): RTT, then server
// memory or disk per page, then the wire transfer. The server caches what
// its disk returns. See the package comment for the abort-cost contract
// when the server disk faults mid-read.
func (s *Server) ReadThrough(c *simclock.Clock, off, n int64) error {
	c.Advance(s.cfg.RTT)
	end := off + n
	for cur := off; cur < end; {
		page := cur / s.pageSize
		pageEnd := (page + 1) * s.pageSize
		stop := end
		if stop > pageEnd {
			stop = pageEnd
		}
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

// ReadFresh charges the slow-path cost model — RTT + server disk + wire —
// WITHOUT consulting or populating the server cache: the characterization
// read lmbench calibrates against, which must not warm the server. The
// same abort-cost contract as ReadThrough applies on a disk fault.
func (s *Server) ReadFresh(c *simclock.Clock, off, n int64) error {
	c.Advance(s.cfg.RTT)
	if err := device.ReadErr(s.disk, c, off, n); err != nil {
		return err
	}
	c.Advance(simclock.TransferTime(n, s.cfg.WireBandwidth))
	return nil
}

// WriteThrough charges one synchronous remote write: RTT, server disk,
// wire. A fault on the server disk aborts before the wire charge and
// surfaces as an error — the write did not happen.
func (s *Server) WriteThrough(c *simclock.Clock, off, n int64) error {
	c.Advance(s.cfg.RTT)
	if err := device.WriteErr(s.disk, c, off, n); err != nil {
		return err
	}
	c.Advance(simclock.TransferTime(n, s.cfg.WireBandwidth))
	return nil
}

// FastRead charges the fast-path cost model: RTT + server memory + wire —
// what a read satisfied entirely from the server's cache costs.
func (s *Server) FastRead(c *simclock.Clock, off, n int64) {
	c.Advance(s.cfg.RTT)
	s.mem.Read(c, off, n)
	c.Advance(simclock.TransferTime(n, s.cfg.WireBandwidth))
}

// ResetDisk discards the server disk's mechanical state (not its cache).
func (s *Server) ResetDisk() { s.disk.Reset() }
