package service

import (
	"errors"
	"net/http"
	"strings"
	"testing"
)

// FuzzJobSpec drives arbitrary POST /jobs bodies through the submission
// path — decode, then defaults and validation in buildJob — under small
// server limits. Bad input must be a decode error or a *specError (HTTP
// 400), never a panic; an accepted spec must respect the limits.
func FuzzJobSpec(f *testing.F) {
	f.Add(smallJob())
	f.Add(fleetJob(""))
	f.Add(fleetJob(`, "risk_aware": true, "seed": 7`))
	f.Add(`{"problem":{"kind":"maxcut3","n":8},"backend":{"kind":"statevector","depth":2},"grid":{"beta_n":5,"gamma_n":5,"p":2},"options":{"sampling_fraction":0.5}}`)
	f.Add(`{"problem":{"kind":"sk","n":6},"backend":{"kind":"density","noise":{"p1":0.001,"p2":0.007}},"grid":{"beta_n":4,"gamma_n":4},"options":{"sampling_fraction":0.5}}`)
	f.Add(`{"problem":{"kind":"h2"},"backend":{"kind":"statevector","ansatz":"twolocal","shots":100},"grid":{"axes":[{"name":"a","min":-1,"max":1,"n":4},{"name":"b","min":-1,"max":1,"n":4},{"name":"c","min":-1,"max":1,"n":2},{"name":"d","min":-1,"max":1,"n":2}]},"options":{"sampling_fraction":0.5,"solver":{"method":"omp"}}}`)
	f.Add(`{"problem":{"kind":"maxcut3","n":8},"backend":{"kind":"analytic"},"grid":{"beta_n":12,"gamma_n":14},"options":{"sampling_fraction":0.5},"fleet":{"devices":[{"queue_median":10,"exec":1,"scenario":{"kind":"dropout","start":0,"duration":5}}]}}`)
	for _, body := range []string{"{not json", `{"problem": {"kind": "maxcut3"}, "unknown_field": 1}`, `[]`, ""} {
		f.Add(body)
	}
	for _, body := range badSpecCases {
		f.Add(body)
	}
	cfg := Config{MaxGridPoints: 1000, MaxQubits: 10}.withDefaults()
	f.Fuzz(func(t *testing.T, body string) {
		spec, err := decodeSpec(strings.NewReader(body))
		if err != nil {
			return
		}
		built, err := buildJob(spec, cfg)
		if err != nil {
			var se *specError
			if !errors.As(err, &se) {
				t.Fatalf("buildJob error %T(%v) is not a *specError (would answer 500)", err, err)
			}
			return
		}
		if n := built.grid.Size(); n < 1 || n > cfg.MaxGridPoints {
			t.Fatalf("accepted a %d-point grid under a %d-point limit", n, cfg.MaxGridPoints)
		}
		if built.qubits > cfg.MaxQubits {
			t.Fatalf("accepted %d qubits under a %d-qubit limit", built.qubits, cfg.MaxQubits)
		}
	})
}

// FuzzArtifactQuery POSTs arbitrary bodies to /landscapes/{id}/query of a
// published artifact: every answer is 200 or 400, never a panic or a 500.
func FuzzArtifactQuery(f *testing.F) {
	for _, body := range []string{
		`{"points": [[0.1, 0.2]]}`,
		`{"points": [[0.1, 0.2], [-3, 40]], "gradients": true}`,
		"nope",
		`{"points": []}`,
		`{}`,
		`{"points": [[0.1]]}`,
		`{"points": [[0.1, 0.2, 0.3]]}`,
		`{"points": [[0.1, 1e999]]}`,
		`{"points": [[0,0],[0,0],[0,0],[0,0],[0,0]]}`,
		`{"points": [[0,0]], "wat": 1}`,
		`{"points": [[0,0]], "gradients": "yes"}`,
		`{"points": null}`,
	} {
		f.Add(body)
	}
	s := New(Config{MaxQueryPoints: 4, DisableTracing: true})
	f.Cleanup(s.Close)
	rec, out := do(f, s, "POST", "/jobs", smallJob())
	res, _ := out["result"].(map[string]any)
	id, _ := res["artifact_id"].(string)
	if rec.Code != http.StatusOK || id == "" {
		f.Fatalf("publishing the fuzz artifact: %d %v", rec.Code, out)
	}
	f.Fuzz(func(t *testing.T, body string) {
		rec, out := do(t, s, "POST", "/landscapes/"+id+"/query", body)
		if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
			t.Fatalf("query %q answered %d: %v", body, rec.Code, out)
		}
	})
}
