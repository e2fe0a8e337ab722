package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestCounterGaugeHistogram(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}

	var g Gauge
	g.Set(7)
	g.SetMax(3) // lower: no effect
	if g.Value() != 7 {
		t.Errorf("gauge = %d, want 7", g.Value())
	}
	g.SetMax(11)
	if g.Value() != 11 {
		t.Errorf("gauge = %d, want 11", g.Value())
	}

	r := NewRegistry()
	h := r.Histogram("h_seconds", "test", []float64{0.1, 1})
	for _, v := range []float64{0.05, 0.5, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Errorf("histogram count = %d, want 4", h.Count())
	}
	if h.Sum() != 6.05 {
		t.Errorf("histogram sum = %v, want 6.05", h.Sum())
	}
}

func TestRegistryPrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter(`pkts_total{fate="sent"}`, "packets by fate").Add(10)
	r.Counter(`pkts_total{fate="lost"}`, "packets by fate").Add(2)
	r.Gauge("workers", "pool size").Set(4)
	h := r.Histogram(`lat_seconds{phase="work"}`, "latencies", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP pkts_total packets by fate
# TYPE pkts_total counter
pkts_total{fate="lost"} 2
pkts_total{fate="sent"} 10
# HELP workers pool size
# TYPE workers gauge
workers 4
# HELP lat_seconds latencies
# TYPE lat_seconds histogram
lat_seconds_bucket{phase="work",le="0.1"} 1
lat_seconds_bucket{phase="work",le="1"} 2
lat_seconds_bucket{phase="work",le="+Inf"} 3
lat_seconds_sum{phase="work"} 5.55
lat_seconds_count{phase="work"} 3
`
	if got := b.String(); got != want {
		t.Errorf("prometheus rendering:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestRegistryTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "c")
	defer func() {
		if recover() == nil {
			t.Error("registering x_total as a gauge must panic")
		}
	}()
	r.Gauge(`x_total{a="b"}`, "g")
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "").Add(2)
	r.Counter("a_total", "").Add(1)
	r.Gauge("g", "").Set(3)
	r.Histogram("h", "", []float64{1}).Observe(0.5)

	s := r.Snapshot()
	if len(s.Counters) != 2 || s.Counters[0].Name != "a_total" || s.Counters[1].Name != "b_total" {
		t.Errorf("counters not sorted: %+v", s.Counters)
	}
	if len(s.Gauges) != 1 || s.Gauges[0].Value != 3 {
		t.Errorf("gauges: %+v", s.Gauges)
	}
	if len(s.Histograms) != 1 || s.Histograms[0].Count != 1 || len(s.Histograms[0].Buckets) != 2 {
		t.Errorf("histograms: %+v", s.Histograms)
	}
	if _, err := json.Marshal(s); err != nil {
		t.Fatal(err)
	}
}

func TestCollectorRing(t *testing.T) {
	c := NewCollector(3, nil)
	for i := 0; i < 5; i++ {
		c.Span(CatPhase, "work", 0, time.Duration(i), time.Duration(i+1))
	}
	if c.Len() != 3 {
		t.Errorf("len = %d, want 3", c.Len())
	}
	if c.Dropped() != 2 {
		t.Errorf("dropped = %d, want 2", c.Dropped())
	}
	cp := c.Capture()
	if cp.DroppedSpans != 2 || len(cp.Spans) != 3 {
		t.Fatalf("capture: %+v", cp)
	}
	// The oldest two were evicted; the rest come back in start order.
	for i, s := range cp.Spans {
		if s.Start != time.Duration(i+2) {
			t.Errorf("span %d start = %v, want %v", i, s.Start, time.Duration(i+2))
		}
	}
}

// TestRingOrderAndEviction pins the ring both recorders share: values
// come back oldest first, and a full ring evicts the oldest and counts
// it.
func TestRingOrderAndEviction(t *testing.T) {
	r := NewRing[int](3)
	for i := 0; i < 5; i++ {
		r.Add(i)
	}
	if got := r.Items(); len(got) != 3 || got[0] != 2 || got[1] != 3 || got[2] != 4 {
		t.Errorf("items = %v, want [2 3 4]", got)
	}
	if r.Len() != 3 || r.Dropped() != 2 {
		t.Errorf("len %d dropped %d, want 3 and 2", r.Len(), r.Dropped())
	}
}

// TestRingBelowCapacity checks that a ring that never filled returns
// everything it was given, unchanged, and drops nothing.
func TestRingBelowCapacity(t *testing.T) {
	r := NewRing[Instant](10)
	want := Instant{At: 5, Cat: CatPacket, Node: 1, Detail: "from node0, 17B"}
	r.Add(want)
	if got := r.Items(); len(got) != 1 || got[0] != want || r.Len() != 1 {
		t.Fatalf("items = %v, want [%v]", got, want)
	}
	if r.Dropped() != 0 {
		t.Errorf("dropped = %d below capacity", r.Dropped())
	}
}

// TestRingGrowsAsItFills: a ring sized for DefaultSpanCap spans that
// keeps three has allocated for about three, not for its capacity, and
// one that fills still stops at its capacity.
func TestRingGrowsAsItFills(t *testing.T) {
	const rings = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range rings {
		r := NewRing[Span](DefaultSpanCap)
		for i := range 3 {
			r.Add(Span{Name: "s", Start: time.Duration(i)})
		}
		if r.Len() != 3 {
			t.Fatalf("len %d, want 3", r.Len())
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / rings; per >= 4096 {
		t.Errorf("a %d-slot ring holding 3 spans allocated %d B, want < 4096", DefaultSpanCap, per)
	}

	r := NewRing[int](100)
	for i := range 250 {
		r.Add(i)
	}
	if got := r.Items(); len(got) != 100 || got[0] != 150 || got[99] != 249 || r.Dropped() != 150 || cap(r.buf) != 100 {
		t.Errorf("full ring: %d items from %d to %d, dropped %d, buffer cap %d; want 100 from 150 to 249, 150, 100",
			len(got), got[0], got[len(got)-1], r.Dropped(), cap(r.buf))
	}
}

func TestRingInvalidCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a zero-capacity ring must panic")
		}
	}()
	NewRing[int](0)
}

func TestCollectorFeedsPhaseHistogram(t *testing.T) {
	reg := NewRegistry()
	c := NewCollector(0, reg)
	c.Span(CatPhase, "wait", 0, 0, time.Millisecond, "rep", "0")
	c.Span(CatMPI, "send", 1, 0, time.Millisecond) // not a phase: no histogram
	h := reg.Histogram(`comb_phase_seconds{phase="wait"}`, "", PhaseBuckets)
	if h.Count() != 1 {
		t.Errorf("phase histogram count = %d, want 1", h.Count())
	}
}

func TestCaptureSaveLoad(t *testing.T) {
	c := NewCollector(0, nil)
	c.Span(CatPhase, "work", 0, 10, 20, "chunk", "0")
	c.Span(CatMPI, "send", 1, 5, 25, "bytes", "1000")
	cp := c.Capture()
	cp.Instants = append(cp.Instants, Instant{At: 7, Cat: "pkt", Node: 1, Detail: "from node0, 4096B"})

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := cp.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCapture(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Spans) != 2 || len(got.Instants) != 1 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if got.Spans[0].Start != 5 || got.Spans[0].Name != "send" {
		t.Errorf("spans not in stable start order: %+v", got.Spans)
	}

	// A wrong schema version must be rejected.
	bad := *cp
	bad.Schema = CaptureSchemaVersion + 1
	if err := bad.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCapture(path); err == nil {
		t.Error("future schema must be rejected")
	}
}

func TestChromeTraceValidAndDeterministic(t *testing.T) {
	c := NewCollector(0, nil)
	c.Span(CatPhase, "work", 0, 1500, 2500, "chunk", "1")
	c.Span(CatMPI, "recv", 1, 1000, 3000, "bytes", "100")
	c.Span(CatRunner, "point", -1, 0, time.Millisecond, "source", "run")
	cp := c.Capture()
	cp.Instants = append(cp.Instants, Instant{At: 2000, Cat: "pkt", Node: 0, Detail: `detail with "quotes"`})

	var a, b bytes.Buffer
	if err := WriteChromeTrace(&a, cp); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&b, cp); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("chrome export is not deterministic")
	}

	var doc struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v\n%s", err, a.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var spans, instants, meta int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			spans++
			if e.Name == "point" && e.PID != runnerPID {
				t.Errorf("runner span on pid %d, want %d", e.PID, runnerPID)
			}
		case "i":
			instants++
		case "M":
			meta++
		}
	}
	if spans != 3 || instants != 1 || meta == 0 {
		t.Errorf("event mix: %d spans, %d instants, %d metadata", spans, instants, meta)
	}
}

func TestManifestSaveLoad(t *testing.T) {
	mf := NewManifest()
	mf.Method = "pww"
	mf.System = "gm"
	mf.Seed = 7
	mf.Faults = "drop=0.01"
	mf.MaskedFaults = []string{"drop"}
	mf.ResultHash = "sha256:abc"
	if mf.GoVersion == "" {
		t.Error("manifest must record the Go version")
	}

	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := mf.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Method != "pww" || got.System != "gm" || got.Seed != 7 || got.ResultHash != "sha256:abc" {
		t.Errorf("round trip: %+v", got)
	}

	// Unknown schema must be rejected.
	b, _ := os.ReadFile(path)
	b = bytes.Replace(b, []byte(fmt.Sprintf(`"schema": %d`, ManifestSchemaVersion)), []byte(`"schema": 99`), 1)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(path); err == nil {
		t.Error("future manifest schema must be rejected")
	}
}

func TestHashResult(t *testing.T) {
	type res struct{ A, B int }
	h1, err := HashResult(res{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	h2, _ := HashResult(res{1, 2})
	h3, _ := HashResult(res{1, 3})
	if h1 != h2 {
		t.Error("hash must be deterministic")
	}
	if h1 == h3 {
		t.Error("different results must hash differently")
	}
	if !strings.HasPrefix(h1, "sha256:") {
		t.Errorf("hash format: %q", h1)
	}
	if HashBytes([]byte("x")) == HashBytes([]byte("y")) {
		t.Error("HashBytes must differ on different input")
	}
}
