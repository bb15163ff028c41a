package landscape

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// FuzzLoadArtifact feeds arbitrary bytes to LoadArtifact, seeded with a
// valid v2 artifact, a legacy v1 file and the damage cases of
// TestArtifactRejectsDamage. Bad input must fail with ErrBadArtifact,
// never panic; whatever loads must be a usable landscape that survives a
// save/load round trip under the same content id.
func FuzzLoadArtifact(f *testing.F) {
	a := testArtifact(f)
	var buf bytes.Buffer
	if err := SaveArtifact(&buf, a); err != nil {
		f.Fatal(err)
	}
	full := buf.String()
	f.Add(full)
	f.Add(`{"axes":[{"Name":"x","Min":0,"Max":1,"N":3}],"data":[1,2,3]}`)
	for _, damaged := range []string{
		"",
		"oscar-landscape-artifact 2\n",
		full[:len(full)/2],
		"oscar-landscape-art",
		"GIF89a totally a landscape\n{}",
		strings.Replace(full, "artifact 2\n", "artifact 3\n", 1),
		strings.Replace(full, "0.25", "0.26", 1),
		strings.Replace(full, `"checksum":"`, `"checksum":"00`, 1),
		strings.Replace(full, `"shape":[5,4]`, `"shape":[4,5]`, 1),
		`{"axes":[{"Name":"x","Min":0,"Max":1,"N":3}],"data":[1,2]}`,
		`{"axes":[{"Name":"x","Min":1,"Max":0,"N":3}],"data":[1,2,3]}`,
		// Axis lengths whose product overflows int to the data length.
		`{"axes":[{"Name":"x","Min":0,"Max":1,"N":4294967296},{"Name":"y","Min":0,"Max":1,"N":4294967296}],"data":[]}`,
		`{"axes":[{"Name":"x","Min":0,"Max":1,"N":3},{"Name":"y","Min":0,"Max":1,"N":6148914691236517206}],"data":[1,2]}`,
	} {
		f.Add(damaged)
	}
	f.Fuzz(func(t *testing.T, in string) {
		got, err := LoadArtifact(strings.NewReader(in))
		if err != nil {
			if !errors.Is(err, ErrBadArtifact) {
				t.Fatalf("error %v does not wrap ErrBadArtifact", err)
			}
			return
		}
		l, err := got.Landscape()
		if err != nil {
			t.Fatalf("loaded artifact is not a landscape: %v", err)
		}
		if len(l.Data) != l.Grid.Size() {
			t.Fatalf("loaded %d values for a %d-point grid", len(l.Data), l.Grid.Size())
		}
		for _, ax := range l.Grid.Axes {
			if ax.N > l.Grid.Size() {
				t.Fatalf("axis %q has %d samples but the grid only %d points", ax.Name, ax.N, l.Grid.Size())
			}
		}
		var out bytes.Buffer
		if err := SaveArtifact(&out, got); err != nil {
			t.Fatalf("re-saving a loaded artifact: %v", err)
		}
		again, err := LoadArtifact(&out)
		if err != nil {
			t.Fatalf("reloading a re-saved artifact: %v", err)
		}
		if again.ID() != got.ID() {
			t.Fatalf("round trip changed the id: %s -> %s", got.ID(), again.ID())
		}
	})
}
