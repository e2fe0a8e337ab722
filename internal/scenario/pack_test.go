package scenario

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	_ "comb/internal/method/all" // pack validation resolves methods by name
)

// shippedDir is the committed pack set, relative to this package.
const shippedDir = "../../testdata/scenarios"

func TestLoadDirShipped(t *testing.T) {
	packs, err := LoadDir(shippedDir)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", shippedDir, err)
	}
	want := []string{
		"clean-baseline",
		"congested-link",
		"jittery-cpu",
		"lossy-link",
		"mixed-eager-rendezvous",
	}
	if got := Names(packs); !reflect.DeepEqual(got, want) {
		t.Fatalf("shipped packs = %v, want %v", got, want)
	}
	for _, p := range packs {
		if p.Description == "" {
			t.Errorf("pack %q has no description", p.Name)
		}
		if p.PackVersion != PackVersion {
			t.Errorf("pack %q loaded with version %d", p.Name, p.PackVersion)
		}
		fs, err := p.FaultSpec()
		if err != nil {
			t.Errorf("pack %q FaultSpec: %v", p.Name, err)
		}
		if p.Name == "clean-baseline" {
			if fs != nil {
				t.Errorf("clean-baseline carries a fault profile: %v", fs)
			}
		} else if fs == nil {
			t.Errorf("pack %q should carry a fault profile", p.Name)
		}
	}
}

func TestLoadDirRejectsDuplicateNames(t *testing.T) {
	dir := t.TempDir()
	src, err := os.ReadFile(filepath.Join(shippedDir, "clean-baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"a.json", "b.json"} {
		if err := os.WriteFile(filepath.Join(dir, f), src, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := LoadDir(dir); err == nil || !strings.Contains(err.Error(), "defined by both") {
		t.Fatalf("duplicate pack names not rejected: %v", err)
	}
}

func TestLoadDirEmpty(t *testing.T) {
	if _, err := LoadDir(t.TempDir()); err == nil || !strings.Contains(err.Error(), "no pack manifests") {
		t.Fatalf("empty dir not rejected: %v", err)
	}
}

func TestPackVersionRejection(t *testing.T) {
	cases := []struct {
		name string
		in   string
		got  int
	}{
		{"future version", `{"packVersion": 2, "name": "x", "seed": 1, "workloads": []}`, 2},
		{"missing version", `{"name": "x", "seed": 1, "workloads": []}`, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var p Pack
			err := json.Unmarshal([]byte(tc.in), &p)
			var ve *PackVersionError
			if !errors.As(err, &ve) {
				t.Fatalf("err = %v, want *PackVersionError", err)
			}
			if ve.Got != tc.got {
				t.Fatalf("PackVersionError.Got = %d, want %d", ve.Got, tc.got)
			}
		})
	}
}

// TestPackValidateRejects pins every structural rule of the manifest
// schema with a deliberately-broken fixture per rule.
func TestPackValidateRejects(t *testing.T) {
	// ok is a minimal valid manifest the cases below each break one way.
	const ok = `{
		"packVersion": 1, "name": "tiny", "seed": 3,
		"workloads": [{"name": "pp", "spec": {"specVersion": 1, "method": "pingpong", "params": {"msg_size": 1024, "reps": 2}}}]
	}`
	cases := []struct {
		name string
		in   string
		want string
	}{
		{"bad pack name", strings.Replace(ok, `"name": "tiny"`, `"name": "Tiny_Pack"`, 1), "lowercase words"},
		{"zero seed", strings.Replace(ok, `"seed": 3`, `"seed": 0`, 1), "non-zero seed"},
		{"unparseable faults", strings.Replace(ok, `"seed": 3,`, `"seed": 3, "faults": "banana",`, 1), "faults"},
		{"no-op faults", strings.Replace(ok, `"seed": 3,`, `"seed": 3, "faults": "drop=0",`, 1), "no-op"},
		{"no workloads", `{"packVersion": 1, "name": "tiny", "seed": 3, "workloads": []}`, "no workloads"},
		{"unnamed workload", strings.Replace(ok, `"name": "pp"`, `"name": ""`, 1), "unnamed workload"},
		{"workload pins system", strings.Replace(ok, `"method": "pingpong"`, `"method": "pingpong", "system": "gm"`, 1), "pins system"},
		{"workload carries faults", strings.Replace(ok, `"method": "pingpong"`, `"method": "pingpong", "faults": "drop=0.5"`, 1), "only fault source"},
		{"workload spec invalid", strings.Replace(ok, `"method": "pingpong"`, `"method": "no-such-method"`, 1), "no-such-method"},
		{"workload spec v0", strings.Replace(ok, `"specVersion": 1, `, ``, 1), "specVersion"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var p Pack
			err := json.Unmarshal([]byte(tc.in), &p)
			if err == nil {
				t.Fatalf("broken manifest accepted:\n%s", tc.in)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %q, want mention of %q", err, tc.want)
			}
		})
	}
	// And the unbroken baseline must load.
	var p Pack
	if err := json.Unmarshal([]byte(ok), &p); err != nil {
		t.Fatalf("baseline manifest rejected: %v", err)
	}
}

// TestPackRejectsUnknownKeys pins the strict decode: an unknown key at
// the top level (here "fault", a typo for "faults", which would otherwise
// run every cell clean) or in a workload entry fails, naming the key.
func TestPackRejectsUnknownKeys(t *testing.T) {
	const ok = `{
		"packVersion": 1, "name": "tiny", "seed": 3, "faults": "drop=0.01",
		"workloads": [{"name": "pp", "spec": {"specVersion": 1, "method": "pingpong", "params": {"msg_size": 1024, "reps": 2}}}]
	}`
	for _, tc := range []struct{ name, in, key string }{
		{"top level", strings.Replace(ok, `"faults"`, `"fault"`, 1), `"fault"`},
		{"workload entry", strings.Replace(ok, `{"name": "pp",`, `{"name": "pp", "reps": 4,`, 1), `"reps"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var p Pack
			err := json.Unmarshal([]byte(tc.in), &p)
			if err == nil {
				t.Fatalf("manifest with an unknown key accepted:\n%s", tc.in)
			}
			if !strings.Contains(err.Error(), "unknown field "+tc.key) {
				t.Fatalf("err = %q, want it to name the unknown key %s", err, tc.key)
			}
		})
	}
	var p Pack
	if err := json.Unmarshal([]byte(ok), &p); err != nil {
		t.Fatalf("baseline manifest rejected: %v", err)
	}
}

func TestPackDuplicateWorkloadRejected(t *testing.T) {
	const in = `{
		"packVersion": 1, "name": "tiny", "seed": 3,
		"workloads": [
			{"name": "pp", "spec": {"specVersion": 1, "method": "pingpong", "params": {"msg_size": 1024, "reps": 2}}},
			{"name": "pp", "spec": {"specVersion": 1, "method": "pingpong", "params": {"msg_size": 2048, "reps": 2}}}
		]
	}`
	var p Pack
	if err := json.Unmarshal([]byte(in), &p); err == nil || !strings.Contains(err.Error(), "appears twice") {
		t.Fatalf("duplicate workload name not rejected: %v", err)
	}
}

// TestPackRoundTrip proves Marshal∘Unmarshal is the identity on every
// shipped pack: the manifests on disk are exactly what the type speaks.
func TestPackRoundTrip(t *testing.T) {
	packs, err := LoadDir(shippedDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range packs {
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("pack %q marshal: %v", p.Name, err)
		}
		var back Pack
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("pack %q re-unmarshal: %v", p.Name, err)
		}
		if !reflect.DeepEqual(*p, back) {
			t.Fatalf("pack %q round trip diverged:\n  in:  %+v\n  out: %+v", p.Name, *p, back)
		}
	}
}

func TestFind(t *testing.T) {
	packs, err := LoadDir(shippedDir)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Find(packs, "lossy-link")
	if err != nil || p.Name != "lossy-link" {
		t.Fatalf("Find(lossy-link) = %v, %v", p, err)
	}
	if _, err := Find(packs, "no-such"); err == nil || !strings.Contains(err.Error(), "clean-baseline") {
		t.Fatalf("Find(no-such) should list available packs, got %v", err)
	}
}
