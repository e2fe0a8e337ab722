package method

import (
	"context"
	"strings"
	"testing"

	"comb/internal/platform"
)

// fakeMethod is a minimal Method stub for registry tests.
type fakeMethod struct {
	name string
	run  func(ctx context.Context, in *platform.Instance, cfg Config) (Result, error)
}

func (f fakeMethod) Name() string            { return f.name }
func (f fakeMethod) Describe() string        { return "test stub" }
func (f fakeMethod) PhaseTaxonomy() []string { return nil }
func (f fakeMethod) Validate(p any) (any, error) {
	return p, nil
}
func (f fakeMethod) Hash(p any) string { return "x" }
func (f fakeMethod) Run(ctx context.Context, in *platform.Instance, cfg Config) (Result, error) {
	if f.run != nil {
		return f.run(ctx, in, cfg)
	}
	return nil, nil
}
func (f fakeMethod) DecodeParams(b []byte) (any, error)    { return nil, nil }
func (f fakeMethod) DecodeResult(b []byte) (Result, error) { return nil, nil }

// registerForTest registers m and removes it from the global registry
// when the test ends, so repeated runs (-count) start from the same set.
func registerForTest(t *testing.T, m Method) {
	t.Helper()
	Register(m)
	t.Cleanup(func() {
		regMu.Lock()
		delete(methods, m.Name())
		regMu.Unlock()
	})
}

func TestRegisterRejectsEmptyAndDuplicate(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("empty name", func() { Register(fakeMethod{name: ""}) })
	registerForTest(t, fakeMethod{name: "testdup"})
	mustPanic("duplicate", func() { Register(fakeMethod{name: "testdup"}) })
}

func TestLookupUnknownListsRegistered(t *testing.T) {
	_, err := Lookup("nosuchmethod")
	if err == nil {
		t.Fatal("Lookup of unknown method must fail")
	}
	if !strings.Contains(err.Error(), `unknown method "nosuchmethod"`) {
		t.Errorf("error %q does not name the missing method", err)
	}
}

func TestNamesSorted(t *testing.T) {
	registerForTest(t, fakeMethod{name: "zzz-test"})
	registerForTest(t, fakeMethod{name: "aaa-test"})
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names not sorted: %v", names)
		}
	}
}

func TestExecuteRejectsNilResult(t *testing.T) {
	in, err := platform.New(platform.Config{Transport: "ideal"})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	m := fakeMethod{name: "nilrunner", run: func(ctx context.Context, in *platform.Instance, cfg Config) (Result, error) {
		return nil, nil
	}}
	_, _, err = Execute(context.Background(), m, in, Config{System: "ideal"}, ExecOptions{})
	if err == nil || !strings.Contains(err.Error(), "produced no result") {
		t.Errorf("Execute with nil result: err = %v, want 'produced no result'", err)
	}
}

func TestDecodeJSON(t *testing.T) {
	type payload struct{ A int }
	p, err := DecodeJSON[payload]([]byte(`{"A":7}`))
	if err != nil || p.A != 7 {
		t.Fatalf("DecodeJSON = %+v, %v", p, err)
	}
	if _, err := DecodeJSON[payload]([]byte(`{`)); err == nil {
		t.Error("DecodeJSON must reject malformed JSON")
	}
}
