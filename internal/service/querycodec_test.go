package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

// queryLimit is the body-size limit FuzzQueryDecode reads under: small, so
// the fuzzer reaches the over-limit path.
const queryLimit = 256

// decodeLimited runs the query decoder on body under a MaxBytesReader, as
// the handler does.
func decodeLimited(body []byte, limit int64) (queryRequest, error) {
	r := http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), limit)
	return decodeQueryBody(readBody(r, int64(len(body)), limit))
}

// decodeReference is the decoder the query endpoint used before the
// scanner: json.Decoder with unknown fields disallowed, on the same
// size-limited stream.
func decodeReference(body []byte, limit int64) (queryRequest, error) {
	dec := json.NewDecoder(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), limit))
	dec.DisallowUnknownFields()
	var req queryRequest
	err := dec.Decode(&req)
	return req, err
}

// canonicalQueries are bodies the scanner decodes itself; the rest of
// queryDecodeSeeds go to encoding/json.
var canonicalQueries = []string{
	`{"points":[[1,2]]}`,
	`{"points":[[0.1,0.2],[-3,40]],"gradients":true}`,
	`{"gradients":false,"points":[[1e5,-1E-5],[1.5e+3,0]]}`,
	`{"points":[[-0,-0.0,0e0]]}`,
	`{"points":[[1e-400]]}`,
	"\t\r\n{ \"points\" :\n[ [ 1 ,\t2 ] ,[ ] ] , \"gradients\" : true }\r\n",
	`{"points":[]}`,
	`{}`,
	`{"points":[[1,2]]} trailing bytes`,
	`{"points":[[1]]}{"points":[[2]]}`,
	`{"points":[[1]]}` + strings.Repeat(" ", 2*queryLimit),
}

var queryDecodeSeeds = append([]string{
	`{"Points":[[1,2]]}`,
	`{"pointſ":[[1,2]]}`,
	`{"\u0070oints":[[1,2]]}`,
	`{"points":[[1]],"points":[[2]]}`,
	`{"gradients":true,"gradients":false,"points":[[1]]}`,
	`{"points":null}`,
	`{"points":[null]}`,
	`{"points":[[null]]}`,
	`{"points":[[1]],"gradients":null}`,
	`{"points":[[01]]}`,
	`{"points":[[-]]}`,
	`{"points":[[1.]]}`,
	`{"points":[[.5]]}`,
	`{"points":[[1e]]}`,
	`{"points":[[1e999]]}`,
	`{"points":[[-1e999, 2]]}`,
	"{\"points\":[[1,\v2]]}",
	"{\"points\":[[1,\u00a02]]}",
	`{"points":[[1,2],]}`,
	`{"points":[[1 2]]}`,
	`{"points":[[1,2]],}`,
	`{"points":[[1,2]],"wat":1}`,
	`{"points":[[1,2]],"gradients":"yes"}`,
	`{"points":[[1,2]],"gradients":truex}`,
	`{"points":[1,2]}`,
	`{"points":[[1,2]]`,
	`{"points":[[1,2]`,
	`[]`,
	`nope`,
	``,
	`{"points":[[` + strings.Repeat("0.125,", queryLimit/6) + `1]]}`,
}, canonicalQueries...)

// FuzzQueryDecode: on any bytes, the query decoder agrees with json.Decoder
// (DisallowUnknownFields) on accept or reject and on the error text; when
// both accept, the points match bitwise and the gradients flag matches.
// Bodies run under a small size limit, so cut-off bodies are covered too.
func FuzzQueryDecode(f *testing.F) {
	for _, s := range queryDecodeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, gotErr := decodeLimited(body, queryLimit)
		want, wantErr := decodeReference(body, queryLimit)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("body %q: error %v, encoding/json %v", body, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if got.Gradients != want.Gradients {
			t.Fatalf("body %q: gradients %v, encoding/json %v", body, got.Gradients, want.Gradients)
		}
		if len(got.Points) != len(want.Points) {
			t.Fatalf("body %q: %d points, encoding/json %d", body, len(got.Points), len(want.Points))
		}
		for i, p := range got.Points {
			if len(p) != len(want.Points[i]) {
				t.Fatalf("body %q: point %d has %d coordinates, encoding/json %d", body, i, len(p), len(want.Points[i]))
			}
			for k, c := range p {
				if math.Float64bits(c) != math.Float64bits(want.Points[i][k]) {
					t.Fatalf("body %q: point %d[%d] = %v, encoding/json %v", body, i, k, c, want.Points[i][k])
				}
			}
		}
	})
}

// TestScanQueryDecodesCanonicalBodies: the canonical bodies, and the bodies
// a JSON encoder writes for a query, take the scanner, not the fallback.
func TestScanQueryDecodesCanonicalBodies(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := make([][]float64, 64)
	for i := range pts {
		pts[i] = []float64{rng.NormFloat64(), 1e6 * rng.NormFloat64()}
	}
	bodies := canonicalQueries
	for _, grad := range []bool{false, true} {
		b, err := json.Marshal(queryRequest{Points: pts, Gradients: grad})
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, string(b))
	}
	for _, b := range bodies {
		if _, ok := scanQuery([]byte(b)); !ok {
			t.Errorf("scanner declined canonical body %q", b)
		}
	}
}

// TestQueryResponseMatchesWriteJSON: the query response writer produces
// exactly writeJSON's bytes and headers — non-finite values as null, with
// and without gradients, with an inline trace, and with an id holding
// characters JSON or HTML escaping would touch.
func TestQueryResponseMatchesWriteJSON(t *testing.T) {
	tr := obs.NewTracer("t<1>")
	root := tr.Start("query")
	root.SetAttr("points", 3)
	root.SetAttr("note", `<a href="x">&</a>`)
	child := root.Child("query.fit")
	child.SetAttr("hit", false)
	child.SetError(errors.New("bad <input>"))
	child.End()
	root.End()
	trace := tr.Snapshot()

	values := []float64{1.5, math.NaN(), math.Inf(1), math.Inf(-1), -0.0, 1e-7, 6.02214076e23, 0.1}
	grads := []jsonFloats{{1, math.NaN()}, {math.Inf(-1), 2.5e-300}}
	for _, resp := range []queryResponse{
		{ID: "ls-0123456789abcdef", Count: len(values), Values: values},
		{ID: `ls-<"odd">&\id` + "\n\u2028\xff", Count: len(values), Values: values, Gradients: grads},
		{ID: "ls-x", Count: 0, Values: nil},
		{ID: "ls-<trace>", Count: len(values), Values: values, Gradients: grads, Trace: trace},
	} {
		want := httptest.NewRecorder()
		writeJSON(want, http.StatusOK, resp)
		body, err := appendQueryResponse(nil, &resp)
		if err != nil {
			t.Fatal(err)
		}
		got := httptest.NewRecorder()
		writeBody(got, http.StatusOK, body)
		if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("id %q:\n got %d %s\nwant %d %s", resp.ID, got.Code, got.Body, want.Code, want.Body)
		}
		if g, w := got.Header().Get("Content-Type"), want.Header().Get("Content-Type"); g != w {
			t.Fatalf("Content-Type %q, want %q", g, w)
		}
	}
}

// BenchmarkQueryCodec decodes and encodes one 512-point query on a 2-axis
// landscape, the query-lru shape: the body as a JSON encoder writes it, and
// the response with and without gradients.
func BenchmarkQueryCodec(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	pts := make([][]float64, 512)
	values := make([]float64, len(pts))
	grads := make([]jsonFloats, len(pts))
	for i := range pts {
		pts[i] = []float64{rng.Float64() * math.Pi, (rng.Float64() - 0.5) * math.Pi}
		values[i] = rng.NormFloat64()
		grads[i] = jsonFloats{rng.NormFloat64(), rng.NormFloat64()}
	}
	body, err := json.Marshal(queryRequest{Points: pts, Gradients: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := decodeLimited(body, 1<<20); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, c := range []struct {
		name  string
		grads []jsonFloats
	}{{"encode", nil}, {"encode-gradients", grads}} {
		resp := queryResponse{ID: "ls-0123456789abcdef", Count: len(pts), Values: values, Gradients: c.grads}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := appendQueryResponse(make([]byte, 0, 64+24*3*len(pts)), &resp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
