package isp

import (
	"net/netip"
	"testing"

	"dynamips/internal/dhcp4"
	"dynamips/internal/dhcp6"
	"dynamips/internal/radius"
)

// TestCPEBootstrapOverWire exercises the full CPE bring-up the simulator
// models, with every message crossing its wire codec: RADIUS
// authentication for the session, DHCPv4 for the WAN address, DHCPv6 IA_PD
// for the delegated prefix — then a renumbering cycle.
func TestCPEBootstrapOverWire(t *testing.T) {
	const now = 1_600_000_000 // a fixed virtual epoch

	// ISP side: the three assignment servers.
	radSrv := radius.NewServer(radius.ServerConfig{
		Pools4:         []netip.Prefix{netip.MustParsePrefix("81.10.0.0/24")},
		Pools6:         []netip.Prefix{netip.MustParsePrefix("2003:1000::/40")},
		DelegatedLen6:  56,
		SessionTimeout: 86400,
	})
	d4Srv := dhcp4.NewServer(dhcp4.ServerConfig{
		Pools:        []netip.Prefix{netip.MustParsePrefix("100.64.0.0/24")},
		LeaseSeconds: 86400,
		Sticky:       true,
	}, dhcp4.ClockFunc(func() int64 { return now }))
	d6Srv := dhcp6.NewServer(dhcp6.ServerConfig{
		Pools:        []netip.Prefix{netip.MustParsePrefix("2003:2000::/40")},
		DelegatedLen: 56,
		ValidSeconds: 86400,
	}, dhcp6.ClockFunc(func() int64 { return now }))

	// access sends one Access-Request as wire bytes and returns the
	// verified, parsed reply.
	access := func(req *radius.Packet) *radius.Packet {
		t.Helper()
		in, err := radius.Parse(req.Append(nil))
		if err != nil {
			t.Fatalf("radius server side: %v", err)
		}
		out, err := radSrv.Handle(in, now)
		if err != nil {
			t.Fatalf("radius Handle: %v", err)
		}
		wire := out.EncodeResponse(in, radSrv.Secret())
		if err := radius.VerifyResponse(wire, req, radSrv.Secret()); err != nil {
			t.Fatalf("response authenticator: %v", err)
		}
		rep, err := radius.Parse(wire)
		if err != nil {
			t.Fatalf("radius client side: %v", err)
		}
		return rep
	}

	// CPE side: RADIUS session.
	req := radius.New(radius.AccessRequest, 1)
	req.Authenticator = [16]byte{1, 2, 3}
	req.AddString(radius.AttrUserName, "wire-cpe-1")
	accept := access(req)
	if accept.Code != radius.AccessAccept {
		t.Fatalf("radius accept: %v", accept.Code)
	}
	framed, _ := accept.GetAddr4(radius.AttrFramedIPAddress)
	delegated, _ := accept.GetPrefix6(radius.AttrDelegatedIPv6Prefix)
	if !framed.IsValid() || !delegated.IsValid() {
		t.Fatalf("missing session addresses: %v %v", framed, delegated)
	}

	// DHCPv4 DORA for the CPE's local pool.
	hw := dhcp4.HWAddr{2, 0, 0, 0, 0, 9}
	dhcp4Exchange := func(m *dhcp4.Message) *dhcp4.Message {
		t.Helper()
		in, err := dhcp4.Unmarshal(m.Marshal())
		if err != nil {
			t.Fatalf("dhcp4 server side: %v", err)
		}
		out, err := d4Srv.Handle(in)
		if err != nil {
			t.Fatalf("dhcp4 Handle: %v", err)
		}
		rep, err := dhcp4.Unmarshal(out.Marshal())
		if err != nil {
			t.Fatalf("dhcp4 client side: %v", err)
		}
		if rep.XID != m.XID || rep.CHAddr != hw {
			t.Fatalf("dhcp4 reply xid %d chaddr %v, want %d %v", rep.XID, rep.CHAddr, m.XID, hw)
		}
		return rep
	}
	offer := dhcp4Exchange(dhcp4.NewMessage(dhcp4.Discover, 1, hw))
	if offer.Type() != dhcp4.Offer {
		t.Fatalf("expected OFFER, got %v", offer.Type())
	}
	request := dhcp4.NewMessage(dhcp4.Request, 2, hw)
	request.SetAddrOption(dhcp4.OptRequestedIP, offer.YIAddr)
	ack := dhcp4Exchange(request)
	if ack.Type() != dhcp4.ACK || ack.YIAddr != offer.YIAddr {
		t.Fatalf("expected ACK for %v, got %v for %v", offer.YIAddr, ack.Type(), ack.YIAddr)
	}
	if !netip.MustParsePrefix("100.64.0.0/24").Contains(ack.YIAddr) {
		t.Fatalf("lease %v outside pool", ack.YIAddr)
	}
	if secs, ok := ack.U32Option(dhcp4.OptLeaseTime); !ok || secs != 86400 {
		t.Fatalf("dhcp4 lease time %d s, want 86400", secs)
	}

	// DHCPv6 IA_PD: Solicit/Advertise/Request/Reply.
	duid := dhcp6.DUIDLL([6]byte{2, 0, 0, 0, 0, 9})
	dhcp6Exchange := func(m *dhcp6.Message) *dhcp6.Message {
		t.Helper()
		in, err := dhcp6.Unmarshal(m.Marshal())
		if err != nil {
			t.Fatalf("dhcp6 server side: %v", err)
		}
		out, err := d6Srv.Handle(in)
		if err != nil {
			t.Fatalf("dhcp6 Handle: %v", err)
		}
		rep, err := dhcp6.Unmarshal(out.Marshal())
		if err != nil {
			t.Fatalf("dhcp6 client side: %v", err)
		}
		if rep.TxnID != m.TxnID {
			t.Fatalf("dhcp6 reply txn %d, want %d", rep.TxnID, m.TxnID)
		}
		return rep
	}
	adv := dhcp6Exchange(dhcp6.NewMessage(dhcp6.Solicit, 1, duid))
	if adv.Type != dhcp6.Advertise || len(adv.IAPDs) == 0 || len(adv.IAPDs[0].Prefixes) == 0 {
		t.Fatalf("no advertisement: %+v", adv)
	}
	req6 := dhcp6.NewMessage(dhcp6.Request, 2, duid)
	req6.ServerID = adv.ServerID
	req6.IAPDs = []dhcp6.IAPD{{IAID: adv.IAPDs[0].IAID, Prefixes: adv.IAPDs[0].Prefixes}}
	reply := dhcp6Exchange(req6)
	if reply.Type != dhcp6.Reply || len(reply.IAPDs) == 0 || len(reply.IAPDs[0].Prefixes) == 0 {
		t.Fatalf("request rejected: %+v", reply)
	}
	pd := reply.IAPDs[0].Prefixes[0].Prefix
	if pd.Bits() != 56 || !netip.MustParsePrefix("2003:2000::/40").Contains(pd.Addr()) {
		t.Fatalf("delegation %v", pd)
	}

	// Renumbering cycle: the RADIUS session restarts and must hand out
	// fresh addresses.
	req2 := radius.New(radius.AccessRequest, 2)
	req2.Authenticator = [16]byte{9, 9, 9}
	req2.AddString(radius.AttrUserName, "wire-cpe-1")
	accept2 := access(req2)
	framed2, _ := accept2.GetAddr4(radius.AttrFramedIPAddress)
	delegated2, _ := accept2.GetPrefix6(radius.AttrDelegatedIPv6Prefix)
	if framed2 == framed && delegated2 == delegated {
		t.Error("reconnect reused both addresses")
	}
}
