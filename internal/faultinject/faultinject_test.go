package faultinject

import (
	"reflect"
	"strings"
	"testing"

	"comb/internal/cluster"
	"comb/internal/sim"
	"comb/internal/transport"
)

func TestParseStringRoundTrip(t *testing.T) {
	for _, in := range []string{
		"seed=0",
		"drop=0.01,seed=7",
		"drop=0.01,dup=0.02,reorder=0.05,delay=0.2:50µs,jitter=0.1:200µs,seed=9",
		"delay=0.5:10µs,seed=3",
		"jitter=1:1ms,seed=12345",
	} {
		s, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		back, err := Parse(s.String())
		if err != nil {
			t.Fatalf("Parse(String(%q)) = Parse(%q): %v", in, s.String(), err)
		}
		if !reflect.DeepEqual(s, back) {
			t.Errorf("round trip of %q: %+v != %+v (via %q)", in, s, back, s.String())
		}
	}
}

// TestDurationsRenderLosslessly pins String's duration form: exact for
// every duration, and unchanged for the forms committed keys use.
func TestDurationsRenderLosslessly(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"delay=0.2:12345ns", "delay=0.2:12345ns,seed=0"},
		{"delay=0.2:12346ns", "delay=0.2:12346ns,seed=0"},
		{"jitter=0.1:1234567ns", "jitter=0.1:1234567ns,seed=0"},
		{"delay=0.2:20000s", "delay=0.2:20000s,seed=0"},
		{"delay=0.2:20us,seed=5", "delay=0.2:20us,seed=5"},
		{"reorder=0.25,delay=0.5:40us,seed=7", "reorder=0.25,delay=0.5:40us,seed=7"},
		{"jitter=0.3:100us,seed=11", "jitter=0.3:100us,seed=11"},
		{"delay=0.1:1.5ms", "delay=0.1:1.5ms,seed=0"},
		// A reorder or duplication bound off the default has no delay
		// probability to ride on.
		{"reorder=0.1,delay=0:5us", "reorder=0.1,delay=0:5us,seed=0"},
		{"dup=0.1,delay=0:25us", "dup=0.1,delay=0:25us,seed=0"},
		{"dup=0.1,delay=0:10us", "dup=0.1,seed=0"},
	} {
		s, err := Parse(tc.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.in, err)
		}
		if got := s.String(); got != tc.want {
			t.Errorf("Parse(%q).String() = %q, want %q", tc.in, got, tc.want)
		}
		if back, err := Parse(s.String()); err != nil || back != s {
			t.Errorf("Parse(%q) = %+v, %v; want %+v", s.String(), back, err, s)
		}
	}
	// An unset bound means the default, so it adds nothing to the key.
	if got := (Spec{Reorder: 0.25, Dup: 0.1, Seed: 3}).String(); got != "dup=0.1,reorder=0.25,seed=3" {
		t.Errorf("String() = %q, want the form without a delay bound", got)
	}
}

func TestParseDefaults(t *testing.T) {
	s, err := Parse("delay=0.2,jitter=0.1,seed=1")
	if err != nil {
		t.Fatal(err)
	}
	if s.DelayMax != DefaultDelayMax {
		t.Errorf("DelayMax = %v, want default %v", s.DelayMax, DefaultDelayMax)
	}
	if s.JitterBurst != DefaultJitterBurst {
		t.Errorf("JitterBurst = %v, want default %v", s.JitterBurst, DefaultJitterBurst)
	}
	if s.Zero() {
		t.Error("spec with probabilities reads as Zero")
	}
	if z, err := Parse(""); err != nil || !z.Zero() {
		t.Errorf("Parse(\"\") = %+v, %v; want zero spec", z, err)
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{
		"nonsense",
		"frobnicate=0.5",
		"drop=high",
		"drop=1.5",
		"drop=-0.1",
		"drop=NaN",
		"jitter=NaN:1us",
		"delay=0.2:fast",
		"seed=-1",
		"seed=abc",
	} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) accepted garbage", in)
		}
	}
}

func TestMaskedPerTolerance(t *testing.T) {
	full := Spec{Drop: 0.1, Dup: 0.1, Reorder: 0.1, DelayProb: 0.1, JitterProb: 0.1}
	cases := []struct {
		system  string
		removed []string
	}{
		{"gm", []string{"drop", "dup", "reorder"}},
		{"portals", []string{"drop", "dup"}},
		{"emp", []string{"drop", "dup"}},
		{"tcp", nil},
	}
	for _, tc := range cases {
		got, removed := full.Masked(transport.ToleranceOf(tc.system))
		if !reflect.DeepEqual(removed, tc.removed) {
			t.Errorf("%s: masked %v, want %v", tc.system, removed, tc.removed)
		}
		// Delay and jitter survive every mask: all transports tolerate
		// in-order slowness.
		if got.DelayProb != full.DelayProb || got.JitterProb != full.JitterProb {
			t.Errorf("%s: mask touched delay/jitter: %+v", tc.system, got)
		}
	}
}

func TestWrapMasksAndPreservesLink(t *testing.T) {
	spec := Spec{Drop: 0.1, Reorder: 0.1, DelayProb: 0.1, Seed: 5}

	gm, err := transport.ByName("gm")
	if err != nil {
		t.Fatal(err)
	}
	w := Wrap(gm, spec)
	if w.Name() != "gm+faults" {
		t.Errorf("Name = %q", w.Name())
	}
	ft, ok := Unwrap(w)
	if !ok {
		t.Fatal("Unwrap failed on wrapped gm")
	}
	if got := ft.MaskedFaults(); !reflect.DeepEqual(got, []string{"drop", "reorder"}) {
		t.Errorf("gm masked %v, want [drop reorder]", got)
	}
	if ft.Spec().DelayProb != spec.DelayProb {
		t.Errorf("delay lost in wrap: %+v", ft.Spec())
	}
	if _, isLP := w.(transport.LinkPreferencer); isLP {
		t.Error("wrapped gm grew a PreferredLink it never had")
	}

	tcp, err := transport.ByName("tcp")
	if err != nil {
		t.Fatal(err)
	}
	wt := Wrap(tcp, spec)
	lp, isLP := wt.(transport.LinkPreferencer)
	if !isLP {
		t.Fatal("wrapped tcp lost its LinkPreferencer — it would run on the wrong wire")
	}
	want, wantHdr := tcp.(transport.LinkPreferencer).PreferredLink()
	got, gotHdr := lp.PreferredLink()
	if got != want || gotHdr != wantHdr {
		t.Errorf("PreferredLink changed under wrap: %+v/%d != %+v/%d", got, gotHdr, want, wantHdr)
	}
	ft, ok = Unwrap(wt)
	if !ok {
		t.Fatal("Unwrap failed on wrapped tcp")
	}
	if len(ft.MaskedFaults()) != 0 {
		t.Errorf("tcp masked %v, want nothing", ft.MaskedFaults())
	}
}

// deliverSeq drives one injector over n synthetic same-pair packets and
// records every delivery time.
func deliverSeq(spec Spec, n int) ([][]sim.Time, *Stats) {
	st := &Stats{}
	in := &injector{spec: spec, rng: sim.NewRand(spec.Seed), last: make(map[pair]sim.Time), stats: st}
	out := make([][]sim.Time, n)
	at := sim.Time(0)
	for i := range out {
		at += 100 // natural wire spacing
		out[i] = in.Deliver(&cluster.Packet{From: 0, To: 1, Size: 4096}, at)
	}
	return out, st
}

func TestInjectorDeterminism(t *testing.T) {
	spec := Spec{Seed: 99, Drop: 0.1, Dup: 0.1, Reorder: 0.2, DelayProb: 0.5, DelayMax: 10 * sim.Microsecond}
	a, sa := deliverSeq(spec, 500)
	b, sb := deliverSeq(spec, 500)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different delivery schedules")
	}
	if *sa != *sb {
		t.Fatalf("same seed produced different stats: %+v vs %+v", *sa, *sb)
	}
	if sa.Delayed == 0 || sa.Reordered == 0 {
		t.Errorf("500 packets at these probabilities hit no faults: %+v", *sa)
	}
	spec.Seed = 100
	c, _ := deliverSeq(spec, 500)
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical schedules")
	}
}

func TestInjectorDelayKeepsFIFO(t *testing.T) {
	// Delay without reorder must preserve per-pair delivery order: GM's
	// eager fragments panic if one overtakes another.
	spec := Spec{Seed: 7, DelayProb: 0.8, DelayMax: 50 * sim.Microsecond}
	seq, st := deliverSeq(spec, 1000)
	var prev sim.Time = -1
	for i, whens := range seq {
		if len(whens) != 1 {
			t.Fatalf("packet %d: %d deliveries without drop/dup configured", i, len(whens))
		}
		if whens[0] < prev {
			t.Fatalf("packet %d delivered at %v, before predecessor at %v", i, whens[0], prev)
		}
		prev = whens[0]
	}
	if st.Delayed < 500 {
		t.Errorf("only %d of 1000 packets delayed at p=0.8", st.Delayed)
	}
}

func TestInjectorDropAndDup(t *testing.T) {
	spec := Spec{Seed: 3, Drop: 0.3, Dup: 0.3, DelayMax: sim.Microsecond}
	seq, _ := deliverSeq(spec, 1000)
	var drops, dups int
	for _, whens := range seq {
		switch len(whens) {
		case 0:
			drops++
		case 2:
			dups++
		}
	}
	if drops == 0 || dups == 0 {
		t.Fatalf("1000 packets at p=0.3: %d drops, %d dups", drops, dups)
	}
	// Loose binomial sanity bounds (deterministic, so no flake risk).
	if drops < 200 || drops > 400 || dups < 130 || dups > 330 {
		t.Errorf("fault rates far from configured probabilities: %d drops, %d dups", drops, dups)
	}
}

func TestInjectorNeverDeliversEarly(t *testing.T) {
	spec := Spec{Seed: 11, Dup: 0.2, Reorder: 0.3, DelayProb: 0.3, DelayMax: 20 * sim.Microsecond}
	st := &Stats{}
	in := &injector{spec: spec, rng: sim.NewRand(spec.Seed), last: make(map[pair]sim.Time), stats: st}
	for i := 0; i < 1000; i++ {
		at := sim.Time(100 * (i + 1))
		for _, w := range in.Deliver(&cluster.Packet{From: i % 3, To: 1, Size: 2048}, at) {
			if w < at {
				t.Fatalf("packet %d scheduled at %v, before its natural arrival %v (fabric would panic)", i, w, at)
			}
		}
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	for _, s := range []Spec{
		{Drop: 1.2},
		{Dup: -0.5},
		{JitterProb: 2},
		{DelayMax: -1},
		{JitterBurst: -1},
	} {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", s)
		}
	}
	if err := (Spec{Drop: 1, Dup: 0.5}).Validate(); err != nil {
		t.Errorf("Validate rejected a legal spec: %v", err)
	}
}

func TestStringMentionsOnlyActiveFaults(t *testing.T) {
	s := Spec{Drop: 0.25, Seed: 17}
	str := s.String()
	if !strings.Contains(str, "drop=0.25") || !strings.Contains(str, "seed=17") {
		t.Errorf("String() = %q", str)
	}
	for _, absent := range []string{"dup", "reorder", "delay", "jitter"} {
		if strings.Contains(str, absent) {
			t.Errorf("String() mentions inactive fault %s: %q", absent, str)
		}
	}
}
