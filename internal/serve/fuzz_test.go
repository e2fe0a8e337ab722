package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"comb/internal/runpipe"
	"comb/internal/spec"
)

// FuzzSubmitBody posts arbitrary bodies to POST /v1/jobs on a fresh
// server whose runs are faked, so nothing is simulated.  Every answer is
// 202, 400 or 503, a rejection carries a JSON error code, and the answer
// is 202 exactly when json.Unmarshal and spec.Normalized both accept the
// body.  The corpus starts from the golden spec documents, the e2e
// fixture, and the fixture with trailing data the handler must reject.
func FuzzSubmitBody(f *testing.F) {
	docs, err := filepath.Glob("../spec/testdata/*.json")
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
	f.Add([]byte(pollingSpecJSON))
	f.Add([]byte(pollingSpecJSON + ` trailing garbage`))
	fake := func(context.Context, spec.Spec) (*runpipe.Outcome, error) {
		return nil, errors.New("serve: fuzz runs are not simulated")
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		srv := New(Config{Run: fake, Workers: 1})
		defer srv.Close()
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))

		var sp spec.Spec
		accept := json.Unmarshal(body, &sp) == nil
		if accept {
			_, _, err := sp.Normalized()
			accept = err == nil
		}
		switch code := rec.Code; {
		case code == http.StatusAccepted:
			var v View
			if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil || v.ID == "" {
				t.Fatalf("202 without a job view: %q (%v)", rec.Body, err)
			}
		case code == http.StatusBadRequest || code == http.StatusServiceUnavailable:
			var e apiError
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error.Code == "" {
				t.Fatalf("HTTP %d without a JSON error code: %q (%v)", code, rec.Body, err)
			}
		default:
			t.Fatalf("HTTP %d for %q: %s", code, body, rec.Body)
		}
		if (rec.Code == http.StatusAccepted) != accept {
			t.Fatalf("HTTP %d for %q, but the spec decoder and Normalized accept=%v: %s", rec.Code, body, accept, rec.Body)
		}
	})
}
