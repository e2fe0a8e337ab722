package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span and instant categories; see the package documentation for the
// taxonomy.
const (
	// CatPhase marks benchmark-engine phases (dry/post/work/wait/poll/
	// drain) on the worker rank's virtual timeline.
	CatPhase = "phase"
	// CatMPI marks per-message post-to-completion spans (send/recv).
	CatMPI = "mpi"
	// CatRunner marks the sweep engine's per-point lifecycle.  Runner
	// spans are wall-clock, not virtual time, and export on their own
	// process track.
	CatRunner = "runner"
	// CatPacket marks one fabric packet delivery, an Instant at the
	// receiving node.
	CatPacket = "pkt"
)

// KV is one ordered span argument.  Arguments are a slice, not a map,
// so serialization order is deterministic.
type KV struct {
	K string `json:"k"`
	V string `json:"v"`
}

// Span is one named, timed interval on a node's timeline.  Start and
// Dur are virtual time for simulation spans (CatPhase, CatMPI) and
// wall-clock offsets from the engine's start for CatRunner spans.
type Span struct {
	Cat   string        `json:"cat"`
	Name  string        `json:"name"`
	Node  int           `json:"node"`
	Start time.Duration `json:"start_ns"`
	Dur   time.Duration `json:"dur_ns"`
	Args  []KV          `json:"args,omitempty"`
}

// DefaultSpanCap is the Collector ring capacity when NewCollector is
// given zero: enough for every phase of a default figure point plus its
// per-message spans.
const DefaultSpanCap = 1 << 16

// Collector keeps the most recent spans in a fixed-size ring.  It is
// safe for concurrent use (the simulator is cooperative, but runner
// spans arrive from pool workers).
type Collector struct {
	mu    sync.Mutex
	spans *Ring[Span]
	reg   *Registry
}

// NewCollector returns a collector keeping the last capacity spans
// (DefaultSpanCap when capacity is 0).  When reg is non-nil, every
// CatPhase span is additionally observed into reg's comb_phase_seconds
// histogram.
func NewCollector(capacity int, reg *Registry) *Collector {
	if capacity == 0 {
		capacity = DefaultSpanCap
	}
	return &Collector{spans: NewRing[Span](capacity), reg: reg}
}

// Registry returns the metrics registry attached at construction (may
// be nil).
func (c *Collector) Registry() *Registry { return c.reg }

// Span records one interval.  kv lists alternating argument keys and
// values; a trailing odd key is ignored.
func (c *Collector) Span(cat, name string, node int, start, end time.Duration, kv ...string) {
	s := Span{Cat: cat, Name: name, Node: node, Start: start, Dur: end - start}
	for i := 0; i+1 < len(kv); i += 2 {
		s.Args = append(s.Args, KV{K: kv[i], V: kv[i+1]})
	}
	c.Add(s)
}

// Add records a prebuilt span, evicting the oldest when the ring is
// full, and feeds the phase-duration histogram when a registry is
// attached.
func (c *Collector) Add(s Span) {
	if c.reg != nil && s.Cat == CatPhase {
		c.reg.Histogram(fmt.Sprintf("comb_phase_seconds{phase=%q}", s.Name),
			"benchmark phase durations in virtual seconds", PhaseBuckets).
			Observe(s.Dur.Seconds())
	}
	c.mu.Lock()
	c.spans.Add(s)
	c.mu.Unlock()
}

// Len reports how many spans are retained.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.spans.Len()
}

// Dropped reports how many spans were evicted from the ring.
func (c *Collector) Dropped() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.spans.Dropped()
}

// CaptureSchemaVersion versions the serialized Capture layout.
const CaptureSchemaVersion = 1

// Instant is one point-in-time event on a node's virtual timeline: a
// packet delivery (CatPacket) recorded when a run sets a trace
// capacity, so wire activity lands on the same exported timeline as
// spans.
type Instant struct {
	At     time.Duration `json:"at_ns"`
	Cat    string        `json:"cat"`
	Node   int           `json:"node"`
	Detail string        `json:"detail"`
}

// Capture is a serializable snapshot of one run's spans (and optional
// instants): the on-disk trace.json format and the input to
// WriteChromeTrace.
type Capture struct {
	Schema       int       `json:"schema"`
	DroppedSpans int64     `json:"dropped_spans,omitempty"`
	Spans        []Span    `json:"spans"`
	Instants     []Instant `json:"instants,omitempty"`
}

// Capture snapshots the collector: retained spans in a stable order
// (by start time, then node, category, name).
func (c *Collector) Capture() *Capture {
	c.mu.Lock()
	spans, dropped := c.spans.Items(), c.spans.Dropped()
	c.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Cat != b.Cat {
			return a.Cat < b.Cat
		}
		return a.Name < b.Name
	})
	return &Capture{Schema: CaptureSchemaVersion, DroppedSpans: dropped, Spans: spans}
}

// Save writes the capture as indented JSON, creating the directory if
// needed.  The write is atomic (temp file + rename), so concurrent jobs
// sharing a directory cannot interleave.
func (c *Capture) Save(path string) error {
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	return WriteFileAtomic(path, append(b, '\n'), 0o644)
}

// LoadCapture reads a capture written by Save, rejecting unknown
// schema versions.
func LoadCapture(path string) (*Capture, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c Capture
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("obs: %s: %w", path, err)
	}
	if c.Schema != CaptureSchemaVersion {
		return nil, fmt.Errorf("obs: %s: capture schema v%d, this build reads v%d", path, c.Schema, CaptureSchemaVersion)
	}
	return &c, nil
}
