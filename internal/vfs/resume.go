package vfs

import (
	"errors"
	"fmt"

	"sleds/internal/cache"
	"sleds/internal/device"
)

// The resumable I/O core. The kernel's blocking path — a read faulting a
// page in from a device, with retries, jitter and write-back of evicted
// dirty pages — is written once, in continuation-passing form: every
// device access is a potential suspension point. A device wrapper that
// cannot complete an access synchronously (internal/iosched's QueuedDevice
// during an engine run) registers the request with its engine and returns
// ErrBlocked; the in-progress operation is then captured as an IOStep
// holding the continuation, and the engine resumes it with the dispatch
// outcome when the device completes the request.
//
// Synchronous callers (everything outside an engine run) execute the same
// step functions to completion in one call: an unqueued device never
// returns ErrBlocked, so the continuation chain collapses into the plain
// call stack the kernel always had. One implementation, two drivers —
// which is what keeps engine and non-engine schedules bit-identical.

// ErrBlocked is the sentinel a queued-device wrapper returns from
// ReadErr/WriteErr when it has enqueued the access with its engine instead
// of completing it. It never escapes to applications: the resumable layer
// converts it into a suspended IOStep, and the engine feeds the real
// outcome back in via Resume.
var ErrBlocked = errors.New("vfs: I/O suspended on a queued device")

// IOStep is the state of one resumable kernel I/O operation: either a
// final result (N bytes, Err) or a suspension waiting on a device request
// whose outcome resumes the continuation.
type IOStep struct {
	blocked bool
	cont    func(devErr error) IOStep
	n       int64
	err     error
}

// ioDone builds a completed step.
func ioDone(n int64, err error) IOStep { return IOStep{n: n, err: err} }

// DoneStep builds a completed step carrying a final result (the engine
// uses it to wrap raw device accesses as one-shot steps).
func DoneStep(n int64, err error) IOStep { return ioDone(n, err) }

// BlockedStep builds a suspended step from a continuation that receives
// the device request's outcome.
func BlockedStep(cont func(devErr error) IOStep) IOStep {
	return IOStep{blocked: true, cont: cont}
}

// Blocked reports whether the operation is suspended on a device request.
func (s IOStep) Blocked() bool { return s.blocked }

// Resume feeds the completed device request's outcome (nil, a *device.Fault
// from an injector below the queue, or any other device error) into the
// suspended operation and runs it to its next suspension or completion.
//
//sledlint:allow panicpath -- resuming a completed step is an engine bug, not a simulation outcome
func (s IOStep) Resume(devErr error) IOStep {
	if !s.blocked {
		panic("vfs: Resume on a completed IOStep")
	}
	return s.cont(devErr)
}

// N returns the byte count of a completed step.
func (s IOStep) N() int64 { return s.n }

// Err returns the error of a completed step.
func (s IOStep) Err() error { return s.err }

// mustComplete unwraps a step that is required to have completed: the
// synchronous API surface. A suspension here means blocking I/O was issued
// against an engine-queued device from outside the engine's op loop (for
// example File.Sync inside a running stream), which the flat engine cannot
// service.
//
//sledlint:allow panicpath -- API misuse: synchronous I/O on an engine-queued device cannot be scheduled
func mustComplete(s IOStep, what string) (int64, error) {
	if s.blocked {
		panic("vfs: " + what + " blocked on a queued device outside the iosched engine op loop")
	}
	return s.n, s.err
}

// deviceAccessStep is deviceAccess in resumable form: issue runs one
// attempt of the access (returning ErrBlocked when it suspended on a
// queued device), and done receives the final outcome after the kernel's
// retry policy has run its course. Faults are counted, observed and
// retried after capped exponential backoff exactly as the synchronous
// contract documents.
func (k *Kernel) deviceAccessStep(issue func() error, done func(err error) IOStep) IOStep {
	pol := k.cfg.Retry.withDefaults()
	attempt := 0
	var tryOnce func() IOStep
	var outcome func(err error) IOStep
	tryOnce = func() IOStep {
		attempt++
		err := issue()
		if errors.Is(err, ErrBlocked) {
			return BlockedStep(outcome)
		}
		return outcome(err)
	}
	outcome = func(err error) IOStep {
		if err == nil {
			return done(nil)
		}
		var f *device.Fault
		if !errors.As(err, &f) {
			return done(err)
		}
		k.stats.DeviceFaults++
		if k.faultObs != nil {
			k.faultObs(f)
		}
		if pol.FailFast || attempt >= pol.MaxAttempts {
			k.stats.EIOs++
			return done(fmt.Errorf("vfs: device %d (%s fault, %d attempt(s)): %w", f.Dev, f.Class, attempt, ErrIO))
		}
		back := pol.backoffBefore(attempt + 1)
		k.Clock.Advance(back)
		k.stats.Retries++
		k.stats.RetryWait += back
		return tryOnce()
	}
	return tryOnce()
}

// accessStep is one charged, retried device access — the historical
// chargeIO(deviceAccess(fn)) composition in resumable form. The elapsed
// virtual time (queueing, service, retries and backoff included) is
// jitter-perturbed and accounted as I/O wait when the access completes.
func (k *Kernel) accessStep(issue func() error, done func(err error) IOStep) IOStep {
	before := k.Clock.Now()
	return k.deviceAccessStep(issue, func(err error) IOStep {
		dt := k.Clock.Now() - before
		if k.jitter != nil && dt > 0 {
			perturbed := k.jitter.Perturb(dt)
			if perturbed > dt {
				k.Clock.Advance(perturbed - dt)
				dt = perturbed
			}
		}
		k.stats.IOWait += dt
		return done(err)
	})
}

// wbItem is one dirty page waiting to be written back after eviction.
type wbItem struct {
	ino  *Inode
	page int64
	data []byte
}

// drainWritebacks writes back every queued evicted dirty page, then
// continues with done. Eviction is asynchronous write-back — failures are
// accounted in WritebackEIOs by writePageStep and otherwise dropped. A
// written-back frame is recycled: writePageStep copied it into the file's
// content before issuing the device write.
func (k *Kernel) drainWritebacks(done func() IOStep) IOStep {
	if len(k.wb) == 0 {
		return done()
	}
	var next func() IOStep
	next = func() IOStep {
		if len(k.wb) == 0 {
			return done()
		}
		item := k.wb[0]
		k.wb = k.wb[1:]
		return k.writePageStep(item.ino, item.page, item.data, func(error) IOStep {
			k.recycleFrame(item.data)
			return next()
		})
	}
	return next()
}

// writePageStep stores page data into the inode's content and charges the
// device write, with retries per the kernel policy (writePageToDevice in
// resumable form).
func (k *Kernel) writePageStep(ino *Inode, page int64, data []byte, done func(err error) IOStep) IOStep {
	ino.content.WritePage(page, data)
	dev := k.Devices.Get(ino.dev)
	off := ino.extent + page*int64(k.cfg.PageSize)
	return k.accessStep(func() error {
		return device.WriteErr(dev, k.Clock, off, int64(len(data)))
	}, func(err error) IOStep {
		if err != nil {
			k.stats.WritebackEIOs++
			return done(err)
		}
		k.stats.PagesWrittenDev++
		return done(nil)
	})
}

// insertStep inserts a page into the cache, making room first: victims are
// evicted one at a time and their dirty pages written back (suspending as
// needed) before the new page goes in. This preserves the cache state the
// blocking engine exposed mid-write-back — the victim gone, the new page
// not yet resident — so concurrent streams observe identical residency.
func (k *Kernel) insertStep(key cache.Key, data []byte, dirty bool, done func(err error) IOStep) IOStep {
	var loop func() IOStep
	loop = func() IOStep {
		if !k.cache.Contains(key) && k.cache.Len() >= k.cache.Cap() {
			if err := k.cache.EvictOne(); err != nil {
				return done(fmt.Errorf("cache: inserting file %d page %d: %w", key.File, key.Page, err))
			}
			return k.drainWritebacks(loop)
		}
		return done(k.cache.Insert(key, data, dirty))
	}
	return loop()
}

// insertPage is the synchronous form of insertStep.
func (k *Kernel) insertPage(key cache.Key, data []byte, dirty bool) error {
	_, err := mustComplete(k.insertStep(key, data, dirty, func(err error) IOStep {
		return ioDone(0, err)
	}), "cache insert")
	return err
}

// drainWritebacksSync writes back queued evictions on the synchronous
// paths (invalidation, file removal).
func (k *Kernel) drainWritebacksSync() {
	_, _ = mustComplete(k.drainWritebacks(func() IOStep { return ioDone(0, nil) }), "eviction write-back")
}
