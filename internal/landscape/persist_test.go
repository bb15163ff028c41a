package landscape

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func testArtifact(t testing.TB) *Artifact {
	t.Helper()
	g, err := NewGrid(
		Axis{Name: "gamma", Min: 0, Max: math.Pi, N: 5},
		Axis{Name: "beta", Min: 0, Max: math.Pi / 2, N: 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	l := New(g)
	for i := range l.Data {
		l.Data[i] = float64(i)*0.25 - 1
	}
	a := NewArtifact(l)
	a.Fingerprint = `{"problem":{"kind":"maxcut"},"backend":{"kind":"statevector"}}`
	a.Solver = SolverMeta{
		Method:           "fista",
		SamplingFraction: 0.05,
		Seed:             42,
		Iterations:       180,
		Residual:         1.2e-6,
		Sparsity:         9,
	}
	a.CreatedAt = time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	return a
}

// TestArtifactRoundTrip: a v2 artifact survives Save/Load with every
// metadata field intact, including the NaN "NRMSE unknown" sentinel.
func TestArtifactRoundTrip(t *testing.T) {
	a := testArtifact(t)
	var buf bytes.Buffer
	if err := SaveArtifact(&buf, a); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "oscar-landscape-artifact 2\n") {
		t.Fatalf("missing header, got %q", buf.String()[:40])
	}
	got, err := LoadArtifact(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != ArtifactVersion {
		t.Errorf("version %d, want %d", got.Version, ArtifactVersion)
	}
	if len(got.Axes) != 2 || got.Axes[0] != a.Axes[0] || got.Axes[1] != a.Axes[1] {
		t.Errorf("axes %+v, want %+v", got.Axes, a.Axes)
	}
	if got.Fingerprint != a.Fingerprint {
		t.Errorf("fingerprint %q, want %q", got.Fingerprint, a.Fingerprint)
	}
	if got.Solver != a.Solver {
		t.Errorf("solver %+v, want %+v", got.Solver, a.Solver)
	}
	if !math.IsNaN(got.NRMSE) {
		t.Errorf("NRMSE %v, want NaN (unknown)", got.NRMSE)
	}
	if !got.CreatedAt.Equal(a.CreatedAt) {
		t.Errorf("created %v, want %v", got.CreatedAt, a.CreatedAt)
	}
	for i := range a.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(a.Data[i]) {
			t.Fatalf("data[%d] = %g, want %g", i, got.Data[i], a.Data[i])
		}
	}
	if got.ID() != a.ID() {
		t.Errorf("ID changed across round trip: %s vs %s", got.ID(), a.ID())
	}

	// A known NRMSE round-trips as a number, not the sentinel.
	a.NRMSE = 0.0173
	buf.Reset()
	if err := SaveArtifact(&buf, a); err != nil {
		t.Fatal(err)
	}
	got, err = LoadArtifact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NRMSE != 0.0173 {
		t.Errorf("NRMSE %v, want 0.0173", got.NRMSE)
	}
}

// TestArtifactLegacyLoad: pre-versioning bare-JSON files still load, as
// format version 1 with unknown NRMSE and no provenance.
func TestArtifactLegacyLoad(t *testing.T) {
	const legacy = `{"axes":[{"Name":"gamma","Min":0,"Max":3.141592653589793,"N":2},` +
		`{"Name":"beta","Min":0,"Max":1.5,"N":3}],"data":[-1,-0.75,-0.5,-0.25,0,0.25]}` + "\n"
	got, err := LoadArtifact(strings.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 1 {
		t.Errorf("legacy version %d, want 1", got.Version)
	}
	if !math.IsNaN(got.NRMSE) || got.Fingerprint != "" {
		t.Errorf("legacy load invented metadata: nrmse=%v fingerprint=%q", got.NRMSE, got.Fingerprint)
	}
	if len(got.Axes) != 2 || got.Axes[0].Name != "gamma" || got.Axes[1].Max != 1.5 || got.Axes[1].N != 3 {
		t.Fatalf("legacy axes %+v", got.Axes)
	}
	want := []float64{-1, -0.75, -0.5, -0.25, 0, 0.25}
	if len(got.Data) != len(want) {
		t.Fatalf("legacy data length %d, want %d", len(got.Data), len(want))
	}
	for i := range want {
		if got.Data[i] != want[i] {
			t.Fatalf("legacy data[%d] = %g, want %g", i, got.Data[i], want[i])
		}
	}
}

// TestArtifactRejectsDamage: truncated, corrupted, wrong-version, and
// garbage-header inputs all fail with ErrBadArtifact.
func TestArtifactRejectsDamage(t *testing.T) {
	a := testArtifact(t)
	var buf bytes.Buffer
	if err := SaveArtifact(&buf, a); err != nil {
		t.Fatal(err)
	}
	full := buf.String()

	cases := []struct {
		name, input string
	}{
		{"empty", ""},
		{"header only", "oscar-landscape-artifact 2\n"},
		{"truncated body", full[:len(full)/2]},
		{"truncated header", "oscar-landscape-art"},
		{"garbage header", "GIF89a totally a landscape\n{}"},
		{"future version", strings.Replace(full, "artifact 2\n", "artifact 3\n", 1)},
		{"flipped data bit", strings.Replace(full, "0.25", "0.26", 1)},
		{"doctored checksum", strings.Replace(full, `"checksum":"`, `"checksum":"00`, 1)},
		{"legacy size mismatch", `{"axes":[{"Name":"x","Min":0,"Max":1,"N":3}],"data":[1,2]}`},
		{"legacy bad axis", `{"axes":[{"Name":"x","Min":1,"Max":0,"N":3}],"data":[1,2,3]}`},
	}
	for _, c := range cases {
		_, err := LoadArtifact(strings.NewReader(c.input))
		if err == nil {
			t.Errorf("%s: load succeeded, want ErrBadArtifact", c.name)
			continue
		}
		if !errors.Is(err, ErrBadArtifact) {
			t.Errorf("%s: error %v does not wrap ErrBadArtifact", c.name, err)
		}
	}
}

// TestArtifactShapeHeaderMismatch: a shape header that disagrees with the
// axes is rejected even when the checksum would pass.
func TestArtifactShapeHeaderMismatch(t *testing.T) {
	a := testArtifact(t)
	var buf bytes.Buffer
	if err := SaveArtifact(&buf, a); err != nil {
		t.Fatal(err)
	}
	doctored := strings.Replace(buf.String(), `"shape":[5,4]`, `"shape":[4,5]`, 1)
	if doctored == buf.String() {
		t.Fatal("test setup: shape header not found")
	}
	_, err := LoadArtifact(strings.NewReader(doctored))
	if !errors.Is(err, ErrBadArtifact) {
		t.Fatalf("got %v, want ErrBadArtifact", err)
	}
}

// TestArtifactFile: SaveArtifactFile is atomic-rename based and leaves no
// temp droppings; LoadArtifactFile reads it back.
func TestArtifactFile(t *testing.T) {
	a := testArtifact(t)
	dir := t.TempDir()
	path := filepath.Join(dir, a.ID()+".landscape")
	if err := SaveArtifactFile(path, a); err != nil {
		t.Fatal(err)
	}
	got, err := LoadArtifactFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID() != a.ID() {
		t.Errorf("ID %s, want %s", got.ID(), a.ID())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries, want only the artifact", len(entries))
	}
	if _, err := LoadArtifactFile(filepath.Join(dir, "missing.landscape")); err == nil {
		t.Error("loading a missing file succeeded")
	}
}

// TestArtifactID: the ID is a stable content address — identical content
// hashes identically, any content change (including the fingerprint) moves
// it, and provenance-only changes do not.
func TestArtifactID(t *testing.T) {
	a := testArtifact(t)
	b := testArtifact(t)
	if a.ID() != b.ID() {
		t.Fatalf("identical artifacts, different IDs: %s vs %s", a.ID(), b.ID())
	}
	if !strings.HasPrefix(a.ID(), "ls-") || len(a.ID()) != 19 {
		t.Fatalf("ID %q, want ls- + 16 hex digits", a.ID())
	}
	b.Solver.Iterations++
	b.NRMSE = 0.5
	if a.ID() != b.ID() {
		t.Error("provenance-only change moved the content ID")
	}
	b.Data[3] += 1e-9
	if a.ID() == b.ID() {
		t.Error("data change kept the same ID")
	}
	c := testArtifact(t)
	c.Fingerprint = "other-config"
	if a.ID() == c.ID() {
		t.Error("fingerprint change kept the same ID")
	}
}
