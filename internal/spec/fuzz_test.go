package spec

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzSpecDecode decodes arbitrary spec documents.  For every document
// that decodes and normalizes, Normalized is idempotent, the document, its
// normal form and KeyOf agree on one key, and the normal form's wire
// document decodes back to the same normal form, key and bytes.  The
// corpus starts from the golden spec documents and the scenario packs'
// workload specs under testdata/.
func FuzzSpecDecode(f *testing.F) {
	docs, err := filepath.Glob("testdata/*.json")
	if err != nil || len(docs) == 0 {
		f.Fatalf("no spec documents: %v", err)
	}
	for _, path := range docs {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	packs, err := filepath.Glob("../../testdata/scenarios/*.json")
	if err != nil || len(packs) == 0 {
		f.Fatalf("no scenario packs: %v", err)
	}
	for _, path := range packs {
		var pack struct {
			Workloads []struct{ Spec json.RawMessage }
		}
		if b, err := os.ReadFile(path); err != nil || json.Unmarshal(b, &pack) != nil {
			f.Fatalf("read %s: %v", path, err)
		}
		for _, w := range pack.Workloads {
			f.Add([]byte(w.Spec))
		}
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		var s Spec
		if json.Unmarshal(doc, &s) != nil {
			return
		}
		n, m, err := s.Normalized()
		if err != nil {
			return
		}
		again, _, err := n.Normalized()
		if err != nil || !reflect.DeepEqual(again, n) {
			t.Fatalf("Normalized is not idempotent: %+v then %+v (%v)", n, again, err)
		}
		key := KeyOf(n, m)
		if s.Key() != key || n.Key() != key {
			t.Fatalf("keys disagree: document %q, normal form %q, KeyOf %q", s.Key(), n.Key(), key)
		}
		wire, err := json.Marshal(n)
		if err != nil {
			t.Fatalf("marshal %+v: %v", n, err)
		}
		var back Spec
		if err := json.Unmarshal(wire, &back); err != nil {
			t.Fatalf("wire form %s does not decode: %v", wire, err)
		}
		bn, _, err := back.Normalized()
		if err != nil {
			t.Fatalf("wire form %s does not normalize: %v", wire, err)
		}
		bn.SpecVersion = n.SpecVersion
		if !reflect.DeepEqual(bn, n) || bn.Key() != key {
			t.Fatalf("wire form %s decodes to %+v (key %q), want %+v (key %q)", wire, bn, bn.Key(), n, key)
		}
		if rewire, err := json.Marshal(back); err != nil || !bytes.Equal(rewire, wire) {
			t.Fatalf("wire form %s re-encodes as %s (%v)", wire, rewire, err)
		}
	})
}
