package service

import (
	"bytes"
	"encoding/json"
	"io"
	"strconv"
)

// The query endpoint's body codec. A surrogate query is mostly numbers, and
// reflection JSON spent more time on them than the spline spends on the
// evaluation. The canonical body {"points":[[…],…],"gradients":bool}
// therefore decodes through a byte scanner, and the response is appended
// into one buffer. Both are exact stand-ins for encoding/json: the scanner
// accepts only bodies encoding/json decodes to the same bits, and hands
// every other body to it, so the accepted set and every error message stay
// those of json.Decoder. The response bytes equal writeJSON's.

// readBody reads r to the end, pre-sizing the buffer from a request's
// Content-Length hint (capped at limit; <= 0 means unknown). It returns the
// bytes read before any error.
func readBody(r io.Reader, hint, limit int64) ([]byte, error) {
	var buf bytes.Buffer
	if hint > 0 {
		buf.Grow(int(min(hint, limit)) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// decodeQueryBody decodes a query body: body is what was read before
// readErr, nil when the body was read to its end. The result, error text
// included, is what json.Decoder with DisallowUnknownFields returns on the
// same byte stream.
func decodeQueryBody(body []byte, readErr error) (queryRequest, error) {
	if readErr == nil {
		if req, ok := scanQuery(body); ok {
			return req, nil
		}
	}
	var src io.Reader = bytes.NewReader(body)
	if readErr != nil {
		src = io.MultiReader(src, errReader{readErr})
	}
	dec := json.NewDecoder(src)
	dec.DisallowUnknownFields()
	var req queryRequest
	err := dec.Decode(&req)
	return req, err
}

// errReader replays a read error after the bytes read before it.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// queryScanner walks a query body byte by byte.
type queryScanner struct {
	b []byte
	i int
}

// skip consumes JSON whitespace.
func (s *queryScanner) skip() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// token consumes lit, after whitespace, if the body continues with it.
func (s *queryScanner) token(lit string) bool {
	s.skip()
	if !bytes.HasPrefix(s.b[s.i:], []byte(lit)) {
		return false
	}
	s.i += len(lit)
	return true
}

// digits consumes a run of decimal digits, reporting whether there was one.
func (s *queryScanner) digits() bool {
	start := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i > start
}

// number consumes one JSON number, after whitespace, and parses it as
// encoding/json does for a float64. It fails on anything outside the JSON
// number grammar and on values out of float64 range.
func (s *queryScanner) number() (float64, bool) {
	s.skip()
	b, start := s.b, s.i
	if s.i < len(b) && b[s.i] == '-' {
		s.i++
	}
	switch {
	case s.i < len(b) && b[s.i] == '0':
		s.i++
	case !s.digits():
		return 0, false
	}
	if s.i < len(b) && b[s.i] == '.' {
		s.i++
		if !s.digits() {
			return 0, false
		}
	}
	if s.i < len(b) && (b[s.i] == 'e' || b[s.i] == 'E') {
		s.i++
		if s.i < len(b) && (b[s.i] == '+' || b[s.i] == '-') {
			s.i++
		}
		if !s.digits() {
			return 0, false
		}
	}
	v, err := strconv.ParseFloat(string(b[start:s.i]), 64)
	return v, err == nil
}

// points consumes the value of "points": an array of arrays of numbers.
func (s *queryScanner) points() ([][]float64, bool) {
	if !s.token("[") {
		return nil, false
	}
	flat := make([]float64, 0, len(s.b)/16)
	var ends []int
	if !s.token("]") {
		for {
			if !s.token("[") {
				return nil, false
			}
			if !s.token("]") {
				for {
					v, ok := s.number()
					if !ok {
						return nil, false
					}
					flat = append(flat, v)
					if s.token("]") {
						break
					}
					if !s.token(",") {
						return nil, false
					}
				}
			}
			ends = append(ends, len(flat))
			if s.token("]") {
				break
			}
			if !s.token(",") {
				return nil, false
			}
		}
	}
	pts := make([][]float64, len(ends))
	lo := 0
	for i, hi := range ends {
		pts[i] = flat[lo:hi:hi]
		lo = hi
	}
	return pts, true
}

// scanQuery decodes a canonical query body: one object whose keys are
// exactly "points" and "gradients", each at most once, with a non-null
// array of number arrays and a bool. Like json.Decoder it ignores whatever
// follows the object. ok is false for any other body.
func scanQuery(b []byte) (req queryRequest, ok bool) {
	s := &queryScanner{b: b}
	if !s.token("{") {
		return req, false
	}
	if s.token("}") {
		return req, true
	}
	var havePoints, haveGrad bool
	for {
		switch {
		case !havePoints && s.token(`"points"`):
			havePoints = true
			if !s.token(":") {
				return req, false
			}
			if req.Points, ok = s.points(); !ok {
				return req, false
			}
		case !haveGrad && s.token(`"gradients"`):
			haveGrad = true
			if !s.token(":") {
				return req, false
			}
			switch {
			case s.token("true"):
				req.Gradients = true
			case s.token("false"):
			default:
				return req, false
			}
		default:
			return req, false
		}
		if s.token("}") {
			return req, true
		}
		if !s.token(",") {
			return req, false
		}
	}
}

// appendQueryResponse appends the bytes writeJSON writes for resp, trailing
// newline included. It fails only if the inline trace fails to encode.
func appendQueryResponse(buf []byte, resp *queryResponse) ([]byte, error) {
	id, err := marshalJSON(resp.ID)
	if err != nil {
		return nil, err
	}
	buf = append(buf, `{"id":`...)
	buf = append(buf, bytes.TrimSuffix(id, []byte("\n"))...)
	buf = append(buf, `,"count":`...)
	buf = strconv.AppendInt(buf, int64(resp.Count), 10)
	buf = append(buf, `,"values":`...)
	buf = appendFloats(buf, resp.Values)
	if len(resp.Gradients) > 0 {
		buf = append(buf, `,"gradients":[`...)
		for i, g := range resp.Gradients {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = appendFloats(buf, g)
		}
		buf = append(buf, ']')
	}
	if resp.Trace != nil {
		tr, err := marshalJSON(resp.Trace)
		if err != nil {
			return nil, err
		}
		buf = append(buf, `,"trace":`...)
		buf = append(buf, bytes.TrimSuffix(tr, []byte("\n"))...)
	}
	return append(buf, "}\n"...), nil
}
