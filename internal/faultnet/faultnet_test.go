package faultnet

import (
	"reflect"
	"strings"
	"testing"
)

func TestStreamDeterminism(t *testing.T) {
	a := NewStream(42, 7)
	b := NewStream(42, 7)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("draw %d: streams diverged (%d vs %d)", i, av, bv)
		}
	}
	c := NewStream(42, 8)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("distinct ids collided on %d of 1000 draws", same)
	}
}

func TestStreamRanges(t *testing.T) {
	s := NewStream(1, 0)
	for i := 0; i < 10000; i++ {
		if f := s.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
		if n := s.IntN(7); n < 0 || n >= 7 {
			t.Fatalf("IntN(7) out of range: %d", n)
		}
	}
}

func TestParseProfile(t *testing.T) {
	cases := []struct {
		in   string
		want Profile
	}{
		{"", Profile{}},
		{"drop=0.1", Profile{Drop: 0.1}},
		{"drop=0.1,dup=0.02,delay=0.05:200-1500",
			Profile{Drop: 0.1, Dup: 0.02, Delay: 0.05, DelayMinMS: 200, DelayMaxMS: 1500}},
		{"delay=0.5", Profile{Delay: 0.5, DelayMinMS: 0, DelayMaxMS: 1000}},
		{" drop=0.3 , dup=1 ", Profile{Drop: 0.3, Dup: 1}},
	}
	for _, c := range cases {
		got, err := ParseProfile(c.in)
		if err != nil {
			t.Fatalf("ParseProfile(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Fatalf("ParseProfile(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestParseProfileErrors(t *testing.T) {
	for _, in := range []string{
		"drop",             // no key=value
		"drop=x",           // not a float
		"drop=1.5",         // outside [0,1]
		"drop=-0.1",        // outside [0,1]
		"delay=0.1:5",      // bounds missing the dash
		"delay=0.1:9-2",    // inverted bounds
		"delay=0.1:-5-2",   // negative minimum
		"delay=0.1:a-b",    // non-numeric bounds
		"jitter=0.1",       // unknown key
		"reorder=0.5",      // removed key: no transport reorders
		"drop=0.1,,dup=.2", // empty field
	} {
		if _, err := ParseProfile(in); err == nil {
			t.Errorf("ParseProfile(%q) succeeded, want error", in)
		}
	}
}

func TestProfileStringRoundtrip(t *testing.T) {
	p := Profile{Drop: 0.1, Dup: 0.02, Delay: 0.05, DelayMinMS: 200, DelayMaxMS: 1500}
	back, err := ParseProfile(p.String())
	if err != nil {
		t.Fatalf("reparsing %q: %v", p.String(), err)
	}
	if back != p {
		t.Fatalf("roundtrip %q = %+v, want %+v", p.String(), back, p)
	}
	if s := (Profile{}).String(); s != "" {
		t.Fatalf("zero profile renders %q, want empty", s)
	}
}

// fixedRT yields a fixed wait forever, or gives up after maxSends.
type fixedRT struct {
	wait     int64
	sent     int
	maxSends int
}

func (r *fixedRT) Next() (int64, bool) {
	r.sent++
	return r.wait, r.maxSends == 0 || r.sent < r.maxSends
}

func TestExchangeZeroProfile(t *testing.T) {
	l := NewLink(Profile{}, 1, 0)
	calls := 0
	v := l.Exchange(5_000, &fixedRT{wait: 4000, maxSends: 5}, func(int) { calls++ })
	if !v.OK || v.DoneMS != 5_000 || v.Sends != 1 || v.Delivered != 1 || calls != 1 {
		t.Fatalf("zero-profile exchange: %+v (deliver calls %d)", v, calls)
	}
	// A zero profile must consume no stream state: the next draws from
	// every stream match a fresh link's.
	fresh := NewLink(Profile{}, 1, 0)
	if l.up.Uint64() != fresh.up.Uint64() || l.down.Uint64() != fresh.down.Uint64() {
		t.Fatal("zero-profile exchange consumed fault-stream draws")
	}
}

func TestExchangeAllDropped(t *testing.T) {
	l := NewLink(Profile{Drop: 1}, 1, 0)
	calls := 0
	v := l.Exchange(0, &fixedRT{wait: 4000, maxSends: 5}, func(int) { calls++ })
	if v.OK || v.Delivered != 0 || calls != 0 {
		t.Fatalf("drop=1 exchange delivered: %+v (calls %d)", v, calls)
	}
	if v.Sends != 5 || v.DoneMS != 5*4000 {
		t.Fatalf("drop=1 exchange: want 5 sends giving up at 20000, got %+v", v)
	}
}

func TestExchangeDuplicates(t *testing.T) {
	l := NewLink(Profile{Dup: 1}, 1, 0)
	copies := []int{}
	v := l.Exchange(0, &fixedRT{wait: 4000, maxSends: 5}, func(c int) { copies = append(copies, c) })
	if !v.OK || v.Sends != 1 || v.Delivered != 2 {
		t.Fatalf("dup=1 exchange: %+v", v)
	}
	if !reflect.DeepEqual(copies, []int{0, 1}) {
		t.Fatalf("dup=1 deliver copies = %v", copies)
	}
}

func TestExchangeDelay(t *testing.T) {
	l := NewLink(Profile{Delay: 1, DelayMinMS: 10, DelayMaxMS: 10}, 1, 0)
	v := l.Exchange(100, &fixedRT{wait: 4000, maxSends: 5}, nil)
	if !v.OK || v.DoneMS != 120 {
		t.Fatalf("delayed exchange: want arrival at 120 (10 up + 10 down), got %+v", v)
	}
}

func TestExchangeDelayBeyondWaitRetransmits(t *testing.T) {
	// A reply slower than the first wait forces a retransmission; the
	// client still accepts the earliest arrival.
	l := NewLink(Profile{Delay: 1, DelayMinMS: 5000, DelayMaxMS: 5000}, 1, 0)
	v := l.Exchange(0, &fixedRT{wait: 4000, maxSends: 5}, nil)
	if !v.OK || v.Sends < 2 {
		t.Fatalf("slow-reply exchange: %+v", v)
	}
	if v.DoneMS != 10_000 { // first send at 0 arrives at 10000 (5s up + 5s down)
		t.Fatalf("slow-reply exchange arrived at %d, want 10000", v.DoneMS)
	}
}

func TestExchangeDeterminism(t *testing.T) {
	run := func() []Verdict {
		l := NewLink(Profile{Drop: 0.5, Dup: 0.2, Delay: 0.3, DelayMinMS: 1, DelayMaxMS: 2000}, 99, 3)
		var vs []Verdict
		now := int64(0)
		for i := 0; i < 200; i++ {
			v := l.Exchange(now, &fixedRT{wait: 4000, maxSends: 5}, nil)
			now = v.DoneMS
			vs = append(vs, v)
		}
		return vs
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical seeds produced different exchange schedules")
	}
	ok := 0
	for _, v := range a {
		if v.OK {
			ok++
		}
	}
	if ok == 0 || ok == len(a) {
		t.Fatalf("50%% loss produced degenerate outcome: %d/%d exchanges ok", ok, len(a))
	}
}

// TestParseProfileGarbage: truncated and garbage specifications must
// return an error — never panic, never yield an invalid profile.
func TestParseProfileGarbage(t *testing.T) {
	for _, in := range []string{
		"\x00\x01\xff",                       // binary garbage
		"drop=0.1,dup",                       // truncated trailing field
		"drop=0.1,dup=",                      // empty value
		"=0.5",                               // empty key
		"drop=NaN",                           // NaN sneaks past range checks without the explicit test
		"dup=+Inf",                           // infinity
		"delay=0.1:",                         // bounds separator with nothing after
		"delay=0.1:5-",                       // half a bound
		"delay=0.1:999999999999999999999-5",  // overflowing int64
		"drop=1e999",                         // overflowing float64
		"drop==0.1",                          // doubled separator
		strings.Repeat("drop=0.1,", 3) + "q", // junk tail
	} {
		p, err := ParseProfile(in)
		if err == nil {
			t.Errorf("ParseProfile(%q) = %+v, want error", in, p)
		}
	}
}
