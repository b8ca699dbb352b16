package dhcp4

import (
	"testing"

	"dynamips/internal/faultnet"
)

// collect drains a retransmitter into (sendTimesMS, giveUpMS): the
// virtual send instants and the moment the client abandons the exchange.
func collect(rt interface {
	Next() (int64, bool)
}) (sends []int64, giveUp int64) {
	t := int64(0)
	for {
		sends = append(sends, t)
		wait, more := rt.Next()
		t += wait
		if !more {
			return sends, t
		}
	}
}

func TestRetransmitterBaseSchedule(t *testing.T) {
	// RFC 2131 §4.1: delays of 4, 8, 16, 32, 64 seconds — five
	// transmissions, giving up 124 s after the first.
	sends, giveUp := collect(NewRetransmitter(nil))
	want := []int64{0, 4_000, 12_000, 28_000, 60_000}
	if len(sends) != len(want) {
		t.Fatalf("sends = %v, want %v", sends, want)
	}
	for i := range want {
		if sends[i] != want[i] {
			t.Fatalf("send %d at %d ms, want %d ms (all: %v)", i, sends[i], want[i], sends)
		}
	}
	if giveUp != 124_000 {
		t.Fatalf("give-up at %d ms, want 124000", giveUp)
	}
}

// constJitter always draws the same fraction.
type constJitter float64

func (c constJitter) Float64() float64 { return float64(c) }

func TestRetransmitterJitterBounds(t *testing.T) {
	cases := []struct {
		name   string
		j      Jitter
		offset int64 // per-wait shift vs the base schedule, ms
	}{
		{"low extreme", constJitter(0), -1000},
		{"high extreme", constJitter(0.9999999), +1000},
		{"midpoint", constJitter(0.5), 0},
	}
	base := []int64{4_000, 8_000, 16_000, 32_000, 64_000}
	for _, c := range cases {
		rt := NewRetransmitter(c.j)
		for i, b := range base {
			wait, more := rt.Next()
			if wait != b+c.offset {
				t.Fatalf("%s: wait %d = %d ms, want %d ms", c.name, i, wait, b+c.offset)
			}
			if more != (i < len(base)-1) {
				t.Fatalf("%s: wait %d reported more=%v", c.name, i, more)
			}
		}
	}
}

func TestRetransmitterJitterStaysInRFCBand(t *testing.T) {
	// Any jitter draw keeps each wait within ±1 s of its base value.
	s := faultnet.NewStream(7, 0)
	for trial := 0; trial < 200; trial++ {
		rt := NewRetransmitter(s)
		for _, b := range []int64{4_000, 8_000, 16_000, 32_000, 64_000} {
			wait, _ := rt.Next()
			if wait < b-1000 || wait > b+1000 {
				t.Fatalf("wait %d ms outside [%d,%d]", wait, b-1000, b+1000)
			}
		}
	}
}

// TestClientRetransmitsThroughLoss loses the first DISCOVER on a lossy
// faultnet link and relies on the RFC 2131 schedule to carry the DORA
// exchange through. Every delivered copy crosses the link as wire bytes
// (Marshal, Unmarshal, Handle), as the isp simulator's exchanges do.
func TestClientRetransmitsThroughLoss(t *testing.T) {
	link := faultnet.NewLink(faultnet.Profile{Drop: 0.5}, pickLossSeed(t), 0)
	srv, _ := newTestServer(86400, false)
	exchange := func(nowMS int64, req *Message) (*Message, faultnet.Verdict) {
		var rep *Message
		v := link.Exchange(nowMS, NewRetransmitter(link.Client()), func(int) {
			in, err := Unmarshal(req.Marshal())
			if err != nil {
				t.Fatalf("server side: %v", err)
			}
			out, err := srv.Handle(in)
			if err != nil {
				t.Fatalf("Handle: %v", err)
			}
			if rep, err = Unmarshal(out.Marshal()); err != nil {
				t.Fatalf("client side: %v", err)
			}
		})
		return rep, v
	}

	offer, v := exchange(0, NewMessage(Discover, 1, hw(201)))
	if !v.OK || offer == nil || offer.Type() != Offer {
		t.Fatalf("DISCOVER through 50%% loss: verdict %+v, reply %v", v, offer)
	}
	if v.Sends != 2 || v.DoneMS < 3_000 {
		t.Fatalf("OFFER after %d sends at %d ms, want the 4±1 s retransmission", v.Sends, v.DoneMS)
	}
	req := NewMessage(Request, 2, hw(201))
	req.SetAddrOption(OptRequestedIP, offer.YIAddr)
	ack, v := exchange(v.DoneMS, req)
	if !v.OK || ack == nil || ack.Type() != ACK || ack.YIAddr != offer.YIAddr {
		t.Fatalf("REQUEST: verdict %+v, reply %v", v, ack)
	}
	if got := srv.ActiveLeases(); got != 1 {
		t.Fatalf("lossy DORA left %d leases, want 1", got)
	}
}

// pickLossSeed finds a link seed whose uplink draws at p=0.5 are (drop,
// pass, pass) and whose downlink draws are (pass, pass), so the first
// DISCOVER is lost, its retransmission succeeds, and the REQUEST leg
// goes through on the first try. NewLink(_, seed, 0) reads its uplink
// from stream (seed, 0) and its downlink from (seed, 1).
func pickLossSeed(t *testing.T) uint64 {
	t.Helper()
	for seed := uint64(0); seed < 1000; seed++ {
		up, down := faultnet.NewStream(seed, 0), faultnet.NewStream(seed, 1)
		if up.Float64() < 0.5 && up.Float64() >= 0.5 && up.Float64() >= 0.5 &&
			down.Float64() >= 0.5 && down.Float64() >= 0.5 {
			return seed
		}
	}
	t.Fatal("no (drop, pass, pass | pass, pass) seed in [0,1000)")
	return 0
}
