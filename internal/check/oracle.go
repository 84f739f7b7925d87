package check

import (
	"fmt"

	"ownsim/internal/noc"
)

// PacketEvent is one completed packet as the differential oracle sees it:
// identity, endpoints, the full timestamp chain and the hop count. Two
// runs of the same RunSpec under the same seed must produce identical
// event sequences in identical global ejection order.
type PacketEvent struct {
	ID         uint64
	Src, Dst   int
	CreatedAt  uint64
	InjectedAt uint64
	EjectedAt  uint64
	Hops       int
}

// String renders the event for diff reports.
func (e PacketEvent) String() string {
	return fmt.Sprintf("pkt %d %d->%d created %d injected %d ejected %d hops %d",
		e.ID, e.Src, e.Dst, e.CreatedAt, e.InjectedAt, e.EjectedAt, e.Hops)
}

// DeliveryLog records every packet delivery of one run in global ejection
// order. fabric.Network.RecordDeliveries subscribes one to the sinks'
// EvEject; within a cycle, sinks eject in the deterministic
// delivery-phase walk order, so the log itself is reproducible.
type DeliveryLog struct {
	Events []PacketEvent
}

// Record appends one completed packet with its ejection cycle.
func (l *DeliveryLog) Record(p *noc.Packet, cycle uint64) {
	l.Events = append(l.Events, PacketEvent{
		ID:         p.ID,
		Src:        p.Src,
		Dst:        p.Dst,
		CreatedAt:  p.CreatedAt,
		InjectedAt: p.InjectedAt,
		EjectedAt:  cycle,
		Hops:       p.Hops,
	})
}

// CompareLogs diffs two delivery logs event for event — delivery order,
// identity and the full latency chain — and returns an error describing
// the first divergence (nil when identical). got is conventionally the
// full engine's log and want the reference interpreter's.
func CompareLogs(got, want *DeliveryLog) error {
	n := len(got.Events)
	if m := len(want.Events); m < n {
		n = m
	}
	for i := 0; i < n; i++ {
		if got.Events[i] != want.Events[i] {
			return fmt.Errorf("check: delivery logs diverge at event %d of %d/%d:\n  engine:    %s\n  reference: %s",
				i, len(got.Events), len(want.Events), got.Events[i], want.Events[i])
		}
	}
	if len(got.Events) != len(want.Events) {
		return fmt.Errorf("check: delivery logs diverge in length: engine delivered %d packets, reference %d (first %d identical)",
			len(got.Events), len(want.Events), n)
	}
	return nil
}
