package landscape

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// Dense ground-truth landscapes and compressed-sensing reconstructions are
// expensive to produce (the whole point of the paper), so they persist
// between runs — and, through the oscard artifact store, between processes
// and across restarts. The on-disk form is a self-describing, versioned
// Artifact: a one-line magic+version header followed by a JSON body carrying
// the grid axes, the ND shape, a problem/backend fingerprint, solver
// metadata, the reconstruction quality if known, and a content checksum that
// doubles as the artifact's identity.

// ArtifactVersion is the current on-disk artifact format version.
const ArtifactVersion = 2

// artifactMagic opens every versioned artifact file; the version number
// follows on the same line. Legacy (pre-versioning) files are bare JSON and
// are detected by their leading '{'.
const artifactMagic = "oscar-landscape-artifact"

// ErrBadArtifact marks an unreadable landscape artifact: truncated, corrupt
// (checksum or shape mismatch), or written by an unknown format version.
// Errors from LoadArtifact wrap it, so errors.Is(err, ErrBadArtifact)
// distinguishes "this file is damaged" from I/O failures.
var ErrBadArtifact = errors.New("landscape: bad artifact")

func badArtifactf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadArtifact, fmt.Sprintf(format, args...))
}

// SolverMeta records how an artifact's data was produced — the
// compressed-sensing solve behind a reconstruction. All fields are optional
// documentation; a dense ground-truth landscape leaves them zero.
type SolverMeta struct {
	// Method is the l1 solver ("fista", "ista", "omp"), empty for dense
	// scans.
	Method string `json:"method,omitempty"`
	// SamplingFraction is the fraction of grid points executed.
	SamplingFraction float64 `json:"sampling_fraction,omitempty"`
	// Seed drove the sampling pattern.
	Seed int64 `json:"seed,omitempty"`
	// Iterations and Residual are the solver's convergence diagnostics.
	Iterations int     `json:"iterations,omitempty"`
	Residual   float64 `json:"residual,omitempty"`
	// Sparsity is the reconstruction's DCT support size.
	Sparsity int `json:"sparsity,omitempty"`
}

// Artifact is a self-describing persisted landscape: the grid and values
// plus the provenance a serving system needs to answer "what is this and can
// I trust it" without re-deriving anything.
type Artifact struct {
	// Version is the format version the artifact was read from (or will be
	// written as — Save always writes ArtifactVersion). Legacy bare-JSON
	// files load as Version 1.
	Version int
	// Axes and Data are the landscape itself (row-major, last axis
	// fastest).
	Axes []Axis
	Data []float64
	// Fingerprint canonicalizes the (problem, backend) configuration that
	// produced the data — opaque to this package; oscard uses its cache
	// config key. Artifacts from identical content share an ID, and the
	// fingerprint is part of that identity.
	Fingerprint string
	// Solver records reconstruction provenance.
	Solver SolverMeta
	// NRMSE is the reconstruction error against ground truth when known,
	// NaN otherwise (ground truth usually does not exist — that is why the
	// reconstruction was run).
	NRMSE float64
	// CreatedAt is when the artifact was produced.
	CreatedAt time.Time
}

// NewArtifact wraps a landscape in an artifact with unknown NRMSE and no
// provenance; callers fill Fingerprint/Solver/CreatedAt as they know more.
func NewArtifact(l *Landscape) *Artifact {
	return &Artifact{
		Version: ArtifactVersion,
		Axes:    append([]Axis(nil), l.Grid.Axes...),
		Data:    l.Data,
		NRMSE:   math.NaN(),
	}
}

// Shape returns the per-axis sample counts (last axis fastest in Data).
func (a *Artifact) Shape() []int {
	d := make([]int, len(a.Axes))
	for i, ax := range a.Axes {
		d[i] = ax.N
	}
	return d
}

// Landscape validates the artifact's grid and returns its landscape view
// (sharing Data).
func (a *Artifact) Landscape() (*Landscape, error) {
	g, err := NewGrid(a.Axes...)
	if err != nil {
		return nil, err
	}
	if len(a.Data) != g.Size() {
		return nil, badArtifactf("%d values for a %d-point grid", len(a.Data), g.Size())
	}
	return &Landscape{Grid: g, Data: a.Data}, nil
}

// Checksum returns the hex SHA-256 over the artifact's content identity:
// axes (name, bounds, resolution), data bits, and fingerprint. Solver
// metadata and NRMSE are provenance, not content, and do not contribute —
// two runs that produced the same landscape for the same configuration hash
// identically.
func (a *Artifact) Checksum() string {
	h := sha256.New()
	var buf [8]byte
	writeF := func(f float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		h.Write(buf[:])
	}
	writeI := func(n int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(n))
		h.Write(buf[:])
	}
	writeI(len(a.Axes))
	for _, ax := range a.Axes {
		writeI(len(ax.Name))
		io.WriteString(h, ax.Name)
		writeF(ax.Min)
		writeF(ax.Max)
		writeI(ax.N)
	}
	writeI(len(a.Data))
	for _, v := range a.Data {
		writeF(v)
	}
	io.WriteString(h, a.Fingerprint)
	return hex.EncodeToString(h.Sum(nil))
}

// ID returns the artifact's content-addressed identity: "ls-" plus the first
// 16 hex digits of its checksum. Identical content — same axes, data, and
// fingerprint — always yields the same ID, which is what lets a store
// deduplicate republished reconstructions.
func (a *Artifact) ID() string { return "ls-" + a.Checksum()[:16] }

// axisJSON pins the wire form of an axis independent of the Axis struct's
// Go field names.
type axisJSON struct {
	Name string  `json:"name"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	N    int     `json:"n"`
}

// artifactBody is the JSON payload following the header line. NRMSE is a
// pointer because encoding/json cannot represent NaN (the "unknown"
// sentinel); nil means unknown.
type artifactBody struct {
	Shape       []int       `json:"shape"`
	Axes        []axisJSON  `json:"axes"`
	Fingerprint string      `json:"fingerprint,omitempty"`
	Solver      *SolverMeta `json:"solver,omitempty"`
	NRMSE       *float64    `json:"nrmse,omitempty"`
	CreatedAt   time.Time   `json:"created_at,omitzero"`
	Checksum    string      `json:"checksum"`
	Data        []float64   `json:"data"`
}

// SaveArtifact writes the artifact in the current format: the magic+version
// header line, then the JSON body with the content checksum embedded.
func SaveArtifact(w io.Writer, a *Artifact) error {
	if _, err := fmt.Fprintf(w, "%s %d\n", artifactMagic, ArtifactVersion); err != nil {
		return err
	}
	body := artifactBody{
		Shape:       a.Shape(),
		Axes:        make([]axisJSON, len(a.Axes)),
		Fingerprint: a.Fingerprint,
		CreatedAt:   a.CreatedAt,
		Checksum:    a.Checksum(),
		Data:        a.Data,
	}
	for i, ax := range a.Axes {
		body.Axes[i] = axisJSON{Name: ax.Name, Min: ax.Min, Max: ax.Max, N: ax.N}
	}
	if a.Solver != (SolverMeta{}) {
		s := a.Solver
		body.Solver = &s
	}
	if !math.IsNaN(a.NRMSE) {
		v := a.NRMSE
		body.NRMSE = &v
	}
	return json.NewEncoder(w).Encode(body)
}

// LoadArtifact reads an artifact written by SaveArtifact, verifying the
// format version, shape consistency, and content checksum; damaged or
// unknown-version input fails with an error wrapping ErrBadArtifact. Legacy
// pre-versioning files (bare JSON) still load,
// as Version 1 with unknown NRMSE and no provenance.
func LoadArtifact(r io.Reader) (*Artifact, error) {
	br := bufio.NewReader(r)
	first, err := br.Peek(1)
	if err != nil {
		return nil, badArtifactf("empty input")
	}
	if first[0] == '{' {
		return loadLegacy(br)
	}
	header, err := br.ReadString('\n')
	if err != nil {
		return nil, badArtifactf("truncated header")
	}
	var version int
	if _, err := fmt.Sscanf(header, artifactMagic+" %d\n", &version); err != nil {
		return nil, badArtifactf("not a landscape artifact (header %q)", strings.TrimSpace(header))
	}
	if version != ArtifactVersion {
		return nil, badArtifactf("format version %d, this build reads versions 1 (legacy) and %d",
			version, ArtifactVersion)
	}
	var body artifactBody
	dec := json.NewDecoder(br)
	if err := dec.Decode(&body); err != nil {
		return nil, badArtifactf("decoding body: %v", err)
	}
	a := &Artifact{
		Version:     version,
		Axes:        make([]Axis, len(body.Axes)),
		Data:        body.Data,
		Fingerprint: body.Fingerprint,
		NRMSE:       math.NaN(),
		CreatedAt:   body.CreatedAt,
	}
	for i, ax := range body.Axes {
		a.Axes[i] = Axis{Name: ax.Name, Min: ax.Min, Max: ax.Max, N: ax.N}
	}
	if body.Solver != nil {
		a.Solver = *body.Solver
	}
	if body.NRMSE != nil {
		a.NRMSE = *body.NRMSE
	}
	if _, err := a.Landscape(); err != nil {
		return nil, wrapBadArtifact(err)
	}
	if got, want := a.Shape(), body.Shape; !equalInts(got, want) {
		return nil, badArtifactf("shape header %v disagrees with axes %v", want, got)
	}
	if sum := a.Checksum(); sum != body.Checksum {
		return nil, badArtifactf("checksum mismatch: stored %.16s…, computed %.16s…", body.Checksum, sum)
	}
	return a, nil
}

// loadLegacy decodes the pre-versioning bare-JSON format.
func loadLegacy(r io.Reader) (*Artifact, error) {
	var s serialized
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, badArtifactf("decode: %v", err)
	}
	a := &Artifact{Version: 1, Axes: s.Axes, Data: s.Data, NRMSE: math.NaN()}
	if _, err := a.Landscape(); err != nil {
		return nil, wrapBadArtifact(err)
	}
	return a, nil
}

// wrapBadArtifact tags validation failures with ErrBadArtifact without
// double-wrapping.
func wrapBadArtifact(err error) error {
	if errors.Is(err, ErrBadArtifact) {
		return err
	}
	return fmt.Errorf("%w: %v", ErrBadArtifact, err)
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// SaveArtifactFile writes the artifact to path atomically: a temp file in
// the same directory is renamed over the target, so a reader (or a crash
// mid-write) never sees a torn artifact.
func SaveArtifactFile(path string, a *Artifact) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".landscape-artifact-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := SaveArtifact(tmp, a); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadArtifactFile reads an artifact from path.
func LoadArtifactFile(path string) (*Artifact, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	a, err := LoadArtifact(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return a, nil
}

// serialized is the legacy (version 1) on-disk JSON form of a landscape,
// written before artifacts had a header or metadata.
type serialized struct {
	Axes []Axis    `json:"axes"`
	Data []float64 `json:"data"`
}
