package rules

import (
	"sync/atomic"

	"dbtrules/internal/telemetry"
)

// storeTel holds a store's pre-resolved metric handles. The latency
// histograms time Add, Quarantine, and Freeze from call entry — lock
// wait included — so store lock contention is directly visible as a
// widening tail.
type storeTel struct {
	reg *telemetry.Registry

	adds         *telemetry.Counter // rules installed (including replacements)
	addRejects   *telemetry.Counter // Add calls refused (dedup loss or quarantine bar)
	quarantines  *telemetry.Counter // rules pulled by Quarantine
	freezes      *telemetry.Counter // Freeze snapshots taken
	freezeReuses *telemetry.Counter // Freeze calls served by the cached Index

	addNS        *telemetry.Histogram
	quarantineNS *telemetry.Histogram
	freezeNS     *telemetry.Histogram

	version *telemetry.Gauge // mutation counter (version churn)
	count   *telemetry.Gauge // installed rules
}

// SetTelemetry attaches a metrics registry to the store (nil detaches).
// The handle is stored atomically so readers on the concurrent lookup
// paths never need the store lock to consult it; a disarmed or detached
// registry costs one atomic load per instrumented call.
func (s *Store) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		s.tel.Store(nil)
		return
	}
	s.tel.Store(&storeTel{
		reg:          reg,
		adds:         reg.Counter("rules_add_total"),
		addRejects:   reg.Counter("rules_add_rejected_total"),
		quarantines:  reg.Counter("rules_quarantine_total"),
		freezes:      reg.Counter("rules_freeze_total"),
		freezeReuses: reg.Counter("rules_freeze_reuse_total"),
		addNS:        reg.Histogram("rules_add_ns"),
		quarantineNS: reg.Histogram("rules_quarantine_ns"),
		freezeNS:     reg.Histogram("rules_freeze_ns"),
		version:      reg.Gauge("rules_version"),
		count:        reg.Gauge("rules_count"),
	})
}

// telArmed returns the armed telemetry handle, or nil.
func (s *Store) telArmed() *storeTel {
	t := s.tel.Load()
	if t == nil || !t.reg.Armed() {
		return nil
	}
	return t
}

// telStoreState publishes the post-mutation version and count gauges.
func (t *storeTel) telStoreState(version uint64, count int) {
	if t == nil {
		return
	}
	t.version.Set(version)
	t.count.Set(uint64(count))
}

// telAtomicPtr aliases the handle holder so store.go's field list stays
// free of generic noise.
type telAtomicPtr = atomic.Pointer[storeTel]
