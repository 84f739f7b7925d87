package check

import (
	"testing"

	"ownsim/internal/noc"
)

// The FIFO rules are per stream: a router output VC, a shared channel, a
// source and a sink VC each carry one packet at a time, so a flit of
// another packet while one is mid-way is a breach even when each packet's
// own flits are in order. The timestamp rule is one clock for the whole
// network. Each test below interleaves two packets whose own flits are in
// order, which per-packet bookkeeping cannot see, plus a control that
// keeps the packets on separate streams.

func TestConformanceUnitRouterInterleaveTripsFIFO(t *testing.T) {
	c := New()
	rt := c.NewRouterMonitor(0, nil, 0)
	_, a := mkpkt(1, 3)
	_, b := mkpkt(2, 3)
	rt.Flit(10, a[0], 0, 1, 0)
	rt.Flit(11, b[0], 2, 1, 0) // same output port and VC, A mid-way
	if rules(c)[RuleFIFO] == 0 {
		t.Fatalf("interleaved packets on one output VC not flagged: %v", c.Violations())
	}

	// The same interleaving over two output VCs of one port is legal.
	c2 := New()
	rt2 := c2.NewRouterMonitor(0, nil, 0)
	for i := range a {
		rt2.Flit(uint64(10+2*i), a[i], 0, 1, 0)
		rt2.Flit(uint64(11+2*i), b[i], 2, 1, 1)
	}
	if err := c2.Err(); err != nil {
		t.Fatalf("packets on separate output VCs flagged: %v", err)
	}
}

func TestConformanceUnitRouterOutOfOrderTripsFIFO(t *testing.T) {
	c := New()
	rt := c.NewRouterMonitor(0, nil, 0)
	_, fl := mkpkt(1, 3)
	rt.Flit(10, fl[0], 0, 2, 1)
	rt.Flit(11, fl[2], 0, 2, 1) // skips the body flit
	if rules(c)[RuleFIFO] != 1 {
		t.Fatalf("seq gap on one output VC flagged %d times, want 1: %v", rules(c)[RuleFIFO], c.Violations())
	}
	_, gl := mkpkt(2, 2)
	rt.Flit(12, gl[1], 0, 2, 1) // a tail with no head before it
	if rules(c)[RuleFIFO] != 2 {
		t.Fatalf("headless tail not flagged: %v", c.Violations())
	}
}

func TestConformanceUnitChannelInterleaveTripsFIFO(t *testing.T) {
	c := New()
	m := c.NewChannelMonitor("ch")
	_, a := mkpkt(1, 2)
	_, b := mkpkt(2, 2)
	m.Deliver(10, a[0], 0)
	m.Deliver(11, b[0], 1) // the medium is locked onto A until its tail
	if rules(c)[RuleFIFO] == 0 {
		t.Fatalf("interleaved deliveries on one channel not flagged: %v", c.Violations())
	}

	c2 := New()
	m2 := c2.NewChannelMonitor("ch")
	for _, f := range append(a, b...) {
		m2.Deliver(10+uint64(f.Pkt.ID), f, 0)
	}
	if err := c2.Err(); err != nil {
		t.Fatalf("packet-contiguous deliveries flagged: %v", err)
	}
}

func TestConformanceUnitSinkInterleaveTripsFIFO(t *testing.T) {
	// launch sends both packets out of two sources of c, so the sink
	// tail's conservation check passes and only the FIFO rule speaks; the
	// flits of B ride VC vcB.
	launch := func(c *Checker, vcB int) (a, b []*noc.Flit) {
		pa, a := mkpkt(1, 2)
		pb, b := mkpkt(2, 2)
		pa.CreatedAt, pa.InjectedAt = 1, 2
		pb.CreatedAt, pb.InjectedAt = 1, 2
		srcA, srcB := c.NewSourceMonitor(0), c.NewSourceMonitor(1)
		for i := range a {
			srcA.Flit(2, a[i])
			srcB.Flit(2, b[i])
			b[i].VC = vcB
		}
		return a, b
	}

	c := New()
	a, b := launch(c, 0)
	snk := c.NewSinkMonitor(9)
	snk.Flit(10, a[0])
	snk.Flit(11, b[0]) // VC 0 is mid-way through A
	if rules(c)[RuleFIFO] == 0 {
		t.Fatalf("interleaved packets on one sink VC not flagged: %v", c.Violations())
	}

	c2 := New()
	a, b = launch(c2, 1)
	snk2 := c2.NewSinkMonitor(9)
	for i := range a {
		snk2.Flit(uint64(10+2*i), a[i])
		snk2.Flit(uint64(11+2*i), b[i])
	}
	if err := c2.Err(); err != nil {
		t.Fatalf("packets interleaved over two sink VCs flagged: %v", err)
	}
	if c2.LiveStates() != 0 {
		t.Fatalf("both tails ejected, %d ledgers open", c2.LiveStates())
	}
}

func TestConformanceUnitSourceInterleaveTripsConserve(t *testing.T) {
	c := New()
	src := c.NewSourceMonitor(0)
	_, a := mkpkt(1, 2)
	_, b := mkpkt(2, 2)
	src.Flit(5, a[0])
	src.Flit(6, b[0]) // a source has one packet in flight at a time
	if rules(c)[RuleConserve] == 0 {
		t.Fatalf("source interleaving two packets not flagged: %v", c.Violations())
	}
}

func TestConformanceUnitTimestampAcrossPackets(t *testing.T) {
	c := New()
	rt := c.NewRouterMonitor(0, nil, 0)
	_, a := mkpkt(1, 1)
	_, b := mkpkt(2, 1)
	rt.Flit(100, a[0], 0, 1, 0)
	rt.Flit(90, b[0], 0, 1, 1) // another packet, earlier than A's event
	if rules(c)[RuleTime] != 1 {
		t.Fatalf("event below an earlier event's cycle flagged %d times, want 1: %v", rules(c)[RuleTime], c.Violations())
	}
	if want := "pkt 2 event at cycle 90 after cycle 100"; c.Violations()[0].Detail != want {
		t.Fatalf("detail %q, want %q", c.Violations()[0].Detail, want)
	}
}
