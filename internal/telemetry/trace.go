package telemetry

import (
	"sync"
	"time"
)

// EventKind classifies a traced engine event.
type EventKind uint8

// Event kinds, in rough lifecycle order.
const (
	EvTranslate  EventKind = iota // a block was translated (Arg: covered guest instrs)
	EvDispatch                    // a block was dispatched (sampled; Arg: block ExecCount)
	EvFault                       // a fault was contained (Arg: retry count for the entry)
	EvRecovery                    // a contained fault recovered
	EvQuarantine                  // a rule was quarantined (Arg: rules removed)
	EvRefreeze                    // the engine refroze its rule-index snapshot
	EvInvalidate                  // blocks were invalidated (Arg: block count)
	EvPromote                     // a block was promoted to the native tier (Arg: ExecCount at promotion)
	numEventKinds
)

var eventKindNames = [numEventKinds]string{
	"translate", "dispatch", "fault", "recovery",
	"quarantine", "refreeze", "invalidate", "promote",
}

// String names the kind.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return "unknown"
}

// Event is one traced occurrence. GuestPC and RuleID carry the engine's
// attribution (-1 when not applicable); Arg is kind-specific.
type Event struct {
	Seq      uint64    `json:"seq"`
	UnixNano int64     `json:"unix_nano"`
	Kind     EventKind `json:"-"`
	KindName string    `json:"kind"`
	GuestPC  int       `json:"guest_pc"`
	RuleID   int       `json:"rule_id"`
	Arg      uint64    `json:"arg,omitempty"`
}

// Ring is a bounded event buffer: the most recent cap events survive,
// older ones are overwritten. A mutex (not a lock-free scheme) guards it:
// the traced events — translation, faults, quarantines, invalidations,
// and sampled dispatches — are orders of magnitude rarer than the
// counter updates on the hot paths, and recording is skipped entirely
// while the registry is disarmed.
type Ring struct {
	mu   sync.Mutex
	buf  []Event
	next uint64 // total events ever recorded; buf slot is next % len(buf)
}

const defaultRingCap = 4096

func newRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = defaultRingCap
	}
	// Round up to a power of two so the slot index is a mask.
	c := 1
	for c < capacity {
		c <<= 1
	}
	return &Ring{buf: make([]Event, c)}
}

func (r *Ring) record(ev Event) {
	r.mu.Lock()
	ev.Seq = r.next
	r.buf[r.next&uint64(len(r.buf)-1)] = ev
	r.next++
	r.mu.Unlock()
}

// Events returns the buffered events oldest-first.
func (r *Ring) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	size := uint64(len(r.buf))
	start := uint64(0)
	if n > size {
		start = n - size
	}
	out := make([]Event, 0, n-start)
	for s := start; s < n; s++ {
		out = append(out, r.buf[s&(size-1)])
	}
	return out
}

// Len returns how many events are currently buffered.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.next > uint64(len(r.buf)) {
		return len(r.buf)
	}
	return int(r.next)
}

// Total returns how many events have ever been recorded (including
// overwritten ones).
func (r *Ring) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

// Trace records an event when the registry is armed. guestPC and ruleID
// use -1 for "not applicable".
func (r *Registry) Trace(kind EventKind, guestPC, ruleID int, arg uint64) {
	if !r.Armed() {
		return
	}
	r.trace.record(Event{
		UnixNano: time.Now().UnixNano(),
		Kind:     kind,
		KindName: kind.String(),
		GuestPC:  guestPC,
		RuleID:   ruleID,
		Arg:      arg,
	})
}

// Events returns the trace ring contents oldest-first.
func (r *Registry) Events() []Event { return r.trace.Events() }

// TraceTotal returns how many events have ever been traced.
func (r *Registry) TraceTotal() uint64 { return r.trace.Total() }
