package fleet

import (
	"errors"
	"fmt"

	"sleds/internal/device"
	"sleds/internal/iosched"
	"sleds/internal/simclock"
)

// Policy selects how the client routes a read across the fleet.
type Policy int

const (
	// PolicyRR is blind round-robin: no estimates, no health — the
	// baseline the experiments compare against. Failover still applies
	// (the next replica in rotation is tried on a fault).
	PolicyRR Policy = iota
	// PolicySLED routes by SLED estimate (load, health, server-cache
	// aware) with demotion and probe-back.
	PolicySLED
	// PolicySLEDHedge is PolicySLED plus a hedged read against the
	// runner-up replica, armed at the estimate-derived deadline.
	PolicySLEDHedge
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PolicyRR:
		return "rr"
	case PolicySLED:
		return "sled"
	case PolicySLEDHedge:
		return "hedge"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParsePolicy maps a policy name to its Policy.
func ParsePolicy(s string) (Policy, bool) {
	switch s {
	case "rr":
		return PolicyRR, true
	case "sled":
		return PolicySLED, true
	case "hedge":
		return PolicySLEDHedge, true
	default:
		return 0, false
	}
}

// ObserveLateFaults wires the engine's orphan observer to the fleet's
// health table: a hedge loser that faults after losing the race never
// surfaces its error to any stream, but the failure is real — without
// this a degraded replica whose faults are always masked by winning
// secondaries would never be demoted. Call once per engine, before Run.
func (f *Fleet) ObserveLateFaults(e *iosched.Engine) {
	e.SetOrphanObserver(func(dev device.ID, err error, at simclock.Duration) {
		var fault *device.Fault
		if f.tab != nil && errors.As(err, &fault) {
			f.tab.ObserveFault(fault.Dev, fault.Extra, at)
		}
	})
}

// Read is one logical read of the replicated file, driven as a
// sub-state-machine inside an iosched Program: call Step with the
// previous Result to get the next Op until it reports done, then inspect
// Err/Dev/Attempts. Failover is built in — a faulted completion feeds
// the table's health observer, burns the replica's per-read retry
// budget, backs off (doubling, capped), and reselects among replicas
// with budget remaining.
type Read struct {
	f      *Fleet
	policy Policy
	off, n int64

	attempts []int  // per-replica attempts consumed this read
	mask     []bool // per-replica retry eligibility, refreshed by eligible
	backoff  simclock.Duration
	target   int  // replica index of the attempt in flight
	hedgeTo  int  // secondary's replica index, -1 when not hedged
	issued   bool // an attempt's Op is outstanding
	sleeping bool // a backoff Sleep is outstanding

	// Outcome, valid once Step reports done.
	Err      error
	Dev      device.ID // replica device that completed the read
	Attempts int       // attempts issued (1 = first try succeeded)
	Hedged   bool      // any attempt's hedge deadline fired
	Failed   int       // faulted completions absorbed by failover

	// Backing arrays for attempts and mask on fleets of up to
	// inlineReplicas replicas, so a read is one allocation.
	inlineAttempts [inlineReplicas]int
	inlineMask     [inlineReplicas]bool
}

// inlineReplicas is the largest fleet whose per-read scratch lives inside
// the Read itself.
const inlineReplicas = 8

// StartRead begins one logical read of [off, off+n) under the policy.
// The zero-valued read issues its first Op at the first Step call.
func (f *Fleet) StartRead(policy Policy, off, n int64) *Read {
	r := &Read{
		f:       f,
		policy:  policy,
		off:     off,
		n:       n,
		backoff: f.cfg.Retry.Backoff,
		target:  -1,
		hedgeTo: -1,
	}
	if nr := len(f.replicas); nr <= inlineReplicas {
		r.attempts, r.mask = r.inlineAttempts[:nr], r.inlineMask[:nr]
	} else {
		r.attempts, r.mask = make([]int, nr), make([]bool, nr)
	}
	return r
}

// replicaByDev maps a completion's device ID back to its replica index
// (-1 when the device is not a fleet replica).
func (f *Fleet) replicaByDev(id device.ID) int {
	for i, r := range f.replicas {
		if r.Dev == id {
			return i
		}
	}
	return -1
}

// eligible reports which replicas still have retry budget this read. The
// mask is the read's own scratch, valid until the next call.
func (r *Read) eligible() (mask []bool, any bool) {
	for i, a := range r.attempts {
		r.mask[i] = a < r.f.cfg.Retry.MaxAttempts
		any = any || r.mask[i]
	}
	return r.mask, any
}

// Step feeds the outcome of the previously returned Op (the zero Result
// on the first call) and returns the next Op. done reports completion:
// when true the Op is meaningless and the outcome fields are valid.
func (r *Read) Step(h *iosched.Handle, prev iosched.Result) (op iosched.Op, done bool) {
	if r.issued {
		r.issued = false
		if prev.HedgeFired {
			r.Hedged = true
		}
		if prev.Err == nil {
			r.Dev = r.winner(prev)
			return iosched.Op{}, true
		}
		// A faulted completion: observe it against the replica that
		// produced it, burn its budget, and fail over.
		idx := r.target
		if dev := r.winner(prev); dev != 0 {
			if byDev := r.f.replicaByDev(dev); byDev >= 0 {
				idx = byDev
			}
		}
		r.Failed++
		r.f.replicas[idx].Faults++
		var fault *device.Fault
		if r.f.tab != nil && errors.As(prev.Err, &fault) {
			r.f.tab.ObserveFault(fault.Dev, fault.Extra, h.Now())
		}
		if _, any := r.eligible(); !any {
			r.Err = fmt.Errorf("fleet: read [%d,+%d) failed on all replicas within budget: %w", r.off, r.n, prev.Err)
			return iosched.Op{}, true
		}
		r.sleeping = true
		back := r.backoff
		if back > r.f.cfg.Retry.BackoffCap {
			back = r.f.cfg.Retry.BackoffCap
		}
		r.backoff = back * 2
		return iosched.Sleep(back), false
	}
	if r.sleeping {
		r.sleeping = false
	}
	return r.issue(h)
}

// winner returns the device that completed the previous attempt: the
// hedge winner when hedged, the plain target otherwise.
func (r *Read) winner(prev iosched.Result) device.ID {
	if r.hedgeTo >= 0 {
		return prev.Dev
	}
	if r.target >= 0 {
		return r.f.replicas[r.target].Dev
	}
	return 0
}

// issue selects a replica under the policy and returns its read Op.
func (r *Read) issue(h *iosched.Handle) (iosched.Op, bool) {
	mask, any := r.eligible()
	if !any {
		r.Err = fmt.Errorf("fleet: read [%d,+%d): retry budget exhausted", r.off, r.n)
		return iosched.Op{}, true
	}
	r.hedgeTo = -1
	switch r.policy {
	case PolicyRR:
		// Blind rotation over replicas with budget left.
		nr := len(r.f.replicas)
		idx := -1
		for probe := 0; probe < nr; probe++ {
			cand := (r.f.rr + probe) % nr
			if mask[cand] {
				idx = cand
				r.f.rr = (cand + 1) % nr
				break
			}
		}
		r.target = idx
	default:
		sel, err := r.f.selectFrom(mask, r.off, r.n, h.Now())
		if err != nil {
			r.Err = err
			return iosched.Op{}, true
		}
		r.target = sel.Primary
		if r.policy == PolicySLEDHedge && sel.Secondary >= 0 {
			r.hedgeTo = sel.Secondary
			rep, sec := r.f.replicas[sel.Primary], r.f.replicas[sel.Secondary]
			rep.Issued++
			r.attempts[sel.Primary]++
			r.Attempts++
			r.issued = true
			return iosched.HedgedDevReadAt(
				rep.Dev, rep.inode.Extent()+r.off,
				sec.Dev, sec.inode.Extent()+r.off,
				r.n, sel.HedgeDelay), false
		}
	}
	rep := r.f.replicas[r.target]
	rep.Issued++
	r.attempts[r.target]++
	r.Attempts++
	r.issued = true
	return iosched.DevRead(rep.Dev, rep.inode.Extent()+r.off, r.n), false
}

// ReadProgram wraps one read as a complete Program: useful for tests and
// single-shot clients. The outcome lands in *out.
func (f *Fleet) ReadProgram(policy Policy, off, n int64, out *Read) iosched.Program {
	rd := f.StartRead(policy, off, n)
	return iosched.ProgramFunc(func(h *iosched.Handle, prev iosched.Result) iosched.Op {
		op, done := rd.Step(h, prev)
		if done {
			if out != nil {
				*out = *rd
			}
			return iosched.Exit(rd.Err)
		}
		return op
	})
}
