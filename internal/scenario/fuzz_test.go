package scenario

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzPackDecode decodes arbitrary pack manifests.  Every document that
// decodes re-encodes through MarshalJSON and decodes back to an equal
// pack whose matrix cells carry the same spec keys.  MarshalJSON stamps
// the current spec version on every workload, so the comparison takes the
// version from the original.  The corpus starts from the committed packs.
// They run to a few KB, and minimizing an input costs time quadratic in
// its length, so run it with a bounded -fuzzminimizetime (CI uses 5s).
func FuzzPackDecode(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join(shippedDir, "*.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no scenario packs: %v", err)
	}
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	cellKeys := func(p *Pack) []string {
		cells, err := Expand(p, nil)
		if err != nil {
			return []string{"error: " + err.Error()}
		}
		keys := make([]string, len(cells))
		for i, c := range cells {
			keys[i] = c.Key
		}
		return keys
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		var p Pack
		if json.Unmarshal(doc, &p) != nil {
			return
		}
		wire, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("decoded pack %+v does not marshal: %v", p, err)
		}
		var back Pack
		if err := json.Unmarshal(wire, &back); err != nil {
			t.Fatalf("marshaled pack %s does not decode: %v", wire, err)
		}
		if got, want := cellKeys(&back), cellKeys(&p); !reflect.DeepEqual(got, want) {
			t.Fatalf("marshaled pack %s has cell keys %q, want %q", wire, got, want)
		}
		if len(back.Workloads) == len(p.Workloads) {
			for i, wl := range p.Workloads {
				back.Workloads[i].Spec.SpecVersion = wl.Spec.SpecVersion
			}
		}
		if !reflect.DeepEqual(back, p) {
			t.Fatalf("marshaled pack %s decodes to %+v, want %+v", wire, back, p)
		}
	})
}
