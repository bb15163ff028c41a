package fleet

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/qpu"
)

// hashBits folds values into a 64-bit FNV-1a hash, 8 bytes each, so float
// arguments are hashed by their exact bits.
func hashBits(h uint64, vs ...uint64) uint64 {
	const prime = 1099511628211
	for _, v := range vs {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime
		}
	}
	return h
}

const fnvOffset = 14695981039346656037

// groupsHash hashes every batch group's (device, size, start, done), the
// times as float bits, in completion order.
func groupsHash(bs []qpu.BatchGroup) uint64 {
	h := uint64(fnvOffset)
	for _, b := range bs {
		h = hashBits(h, uint64(int64(b.Device)), uint64(b.Size), math.Float64bits(b.Start), math.Float64bits(b.Done))
	}
	return h
}

func floatsHash(xs []float64) uint64 {
	h := uint64(fnvOffset)
	for _, x := range xs {
		h = hashBits(h, math.Float64bits(x))
	}
	return h
}

// dropoutFailureFleet is failureFleet(0.1) with the balanced device dark for
// the first 900 virtual seconds: the risk-aware policy benches it, probes it
// and re-admits it once the window has passed.
func dropoutFailureFleet() []qpu.Device {
	devs := failureFleet(0.1)
	devs[1].Scenario = qpu.Dropout{Start: 0, Duration: 900}
	return devs
}

// TestFleetPlanGolden pins whole streaming runs bit for bit, one per
// scheduling policy: every batch group's device, size, start and done, the
// retry count, the quarantine log, the makespan and the final
// reconstruction. The cross-worker tests only compare a run with itself;
// this one catches any change to the plan a fixed seed produces. Floats in
// the table are written in shortest round-trip form, so comparing them with
// == compares their bits.
func TestFleetPlanGolden(t *testing.T) {
	cases := []struct {
		name      string
		opt       Options
		devs      []qpu.Device
		fraction  float64
		groups    int
		groupHash uint64
		retries   int
		events    []QuarantineEvent
		makespan  float64
		dataHash  uint64
	}{
		{
			name: "adaptive", opt: Options{Seed: 11, Thresholds: []float64{0.4, 0.7}},
			devs: heterogeneousFleet(0.1, 15), fraction: 0.4,
			groups: 39, groupHash: 0x8297d1e27fb13da2, retries: 0,
			makespan: 2156.5928671246397, dataHash: 0xca924642835f23fc,
		},
		{
			name: "adaptive-failures", opt: Options{Seed: 42},
			devs: failureFleet(0.25), fraction: 0.5,
			groups: 71, groupHash: 0x5da06ff8ac823ed8, retries: 29,
			makespan: 4411.777091113954, dataHash: 0x09392f6d071c55d3,
		},
		{
			// Bench after three failures, retry backoff, probe interval
			// and re-admission.
			name: "risk-aware-dropout", opt: Options{Seed: 7, RiskAware: true, Thresholds: []float64{0.5}},
			devs: dropoutFailureFleet(), fraction: 0.6,
			groups: 59, groupHash: 0xbfc6ae01ce37ba03, retries: 15,
			events: []QuarantineEvent{
				{Device: 1, Name: "mid", Time: 198.0257150139064, Reason: "failures"},
				{Device: 1, Name: "mid", Time: 1172.2149983244733, Reason: "probe-succeeded"},
			},
			makespan: 3995.0553033497226, dataHash: 0xe7fcb959d4a8f42a,
		},
		{
			// Tails heavy enough that the tail-budget cap binds.
			name: "risk-aware-tails", opt: Options{Seed: 9, RiskAware: true},
			devs: heterogeneousFleet(0.3, 20), fraction: 0.8,
			groups: 54, groupHash: 0x6c7df061d3911308, retries: 0,
			makespan: 8931.596505453976, dataHash: 0x612b130249dd5b04,
		},
		{
			name: "fixed-batch", opt: Options{Seed: 3, FixedBatch: 16},
			devs: failureFleet(0.1), fraction: 0.5,
			groups: 19, groupHash: 0x475d2861d6a3caf8, retries: 6,
			makespan: 1434.693291075223, dataHash: 0x09392f6d071c55d3,
		},
	}
	g := testGrid(t)
	for _, c := range cases {
		s, err := New(c.opt, c.devs...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.ReconstructStream(context.Background(), g, streamOpts(c.fraction, 5))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		rep := res.Report
		if n, h := len(rep.Batches), groupsHash(rep.Batches); n != c.groups || h != c.groupHash {
			t.Errorf("%s: %d groups hashing to %#016x, want %d hashing to %#016x", c.name, n, h, c.groups, c.groupHash)
		}
		if rep.Retries != c.retries {
			t.Errorf("%s: %d retries, want %d", c.name, rep.Retries, c.retries)
		}
		if !reflect.DeepEqual(res.Quarantines, c.events) {
			t.Errorf("%s: quarantine log %+v, want %+v", c.name, res.Quarantines, c.events)
		}
		if rep.Makespan != c.makespan {
			t.Errorf("%s: makespan %v, want %v", c.name, rep.Makespan, c.makespan)
		}
		if h := floatsHash(res.Landscape.Data); h != c.dataHash {
			t.Errorf("%s: reconstruction hash %#016x, want %#016x", c.name, h, c.dataHash)
		}
	}
}
