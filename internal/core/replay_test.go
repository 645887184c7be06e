package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randomSigs draws n signatures of width-4 normalized BBVs. Half the
// draws repeat an earlier BBV exactly, so distances tie exactly (at
// zero, and between equal entries under a DDS gate), and DDS values come
// from a small set so the DDS gate both passes and fails.
func randomSigs(rng *rand.Rand, n int) []IntervalSignature {
	sigs := make([]IntervalSignature, n)
	for i := range sigs {
		var bbv []float64
		if i > 0 && rng.Intn(2) == 0 {
			bbv = sigs[rng.Intn(i)].BBV
		} else {
			bbv = make([]float64, 4)
			var sum float64
			for j := range bbv {
				bbv[j] = float64(rng.Intn(4))
				sum += bbv[j]
			}
			if sum == 0 {
				bbv[0], sum = 1, 1
			}
			for j := range bbv {
				bbv[j] /= sum
			}
		}
		sigs[i] = IntervalSignature{Index: i, BBV: bbv, DDS: float64(rng.Intn(4)) * 0.25}
	}
	return sigs
}

// TestReplayMatchesOnlineTable checks the offline replay against the
// online footprint table fed the same sequence interval by interval, for
// every footprint-table detector kind and table sizes the sequences
// overflow, so LRU eviction is exercised. One Replay serves every
// setting, which also checks that its in-place reset leaves nothing
// behind from the previous setting.
func TestReplayMatchesOnlineTable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	evicting := 0
	for _, size := range []int{1, 2, 3, 8, 32} {
		for trial := 0; trial < 20; trial++ {
			sigs := randomSigs(rng, 2*size+rng.Intn(3*size+8))
			replay := NewReplay(sigs, size)
			for _, kind := range []DetectorKind{DetectorBBV, DetectorBBVDDV, DetectorDDS} {
				for _, thBBV := range []float64{0, 0.3, 2} {
					for _, thDDS := range []float64{0, 0.3, 2} {
						got, _ := replay.Classify(kind, thBBV, thDDS)
						online := NewDetector(kind, 1, size, thBBV, thDDS).Table
						for i, s := range sigs {
							want, _ := online.Classify(s.BBV, s.DDS)
							if got[i] != want {
								t.Fatalf("size %d trial %d %v th=(%g,%g): interval %d replay=%d online=%d",
									size, trial, kind, thBBV, thDDS, i, got[i], want)
							}
						}
						if online.PhasesAllocated() > size {
							evicting++
						}
					}
				}
			}
		}
	}
	if evicting == 0 {
		t.Error("no setting allocated more phases than the table holds; eviction untested")
	}
}

func TestReplayEmptyAndUnknownKind(t *testing.T) {
	if ids, _ := NewReplay(nil, 4).Classify(DetectorBBV, 0.1, 0); len(ids) != 0 {
		t.Errorf("empty replay classified %d intervals", len(ids))
	}
	for _, kind := range []DetectorKind{DetectorWSS, DetectorKind(9)} {
		t.Run(fmt.Sprint(kind), func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic: the replay classifies footprint-table kinds only")
				}
			}()
			NewReplay(nil, 4).Classify(kind, 0.1, 0)
		})
	}
}

// TestReplayClassifyAllocatesNothing guards the sweep's steady state:
// after NewReplay, classifying at another setting reuses the table and
// the ID buffer.
func TestReplayClassifyAllocatesNothing(t *testing.T) {
	replay := NewReplay(randomSigs(rand.New(rand.NewSource(2)), 40), 8)
	th := 0.0
	allocs := testing.AllocsPerRun(100, func() {
		th += 0.01
		replay.Classify(DetectorBBVDDV, th, 0.3)
	})
	if allocs != 0 {
		t.Errorf("Replay.Classify allocated %v times per call, want 0", allocs)
	}
}

// TestReplayBoxProperty checks the box Classify reports: every setting
// inside it gives the IDs a fresh online table gives at that setting.
// Thresholds are drawn from the sequence's own BBV distances and DDS
// deltas and their floating-point neighbours, so settings land exactly
// on a recorded value — the tie a half-open box must get right — as
// well as between and beyond them.
func TestReplayBoxProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	inside, moved := 0, 0
	for _, size := range []int{1, 2, 4, 32} {
		for trial := 0; trial < 8; trial++ {
			sigs := randomSigs(rng, 2*size+rng.Intn(2*size+8))
			bbvs := []float64{0, 2, 3}
			ddss := []float64{0, 1, -1}
			for i := range sigs {
				for j := 0; j < i; j++ {
					bbvs = append(bbvs, Manhattan(sigs[i].BBV, sigs[j].BBV))
					ddss = append(ddss, math.Abs(sigs[i].DDS-sigs[j].DDS))
				}
			}
			pick := func(pool []float64) float64 {
				v := pool[rng.Intn(len(pool))]
				switch rng.Intn(4) {
				case 0:
					return math.Nextafter(v, math.Inf(-1))
				case 1:
					return math.Nextafter(v, math.Inf(1))
				}
				return v
			}
			replay := NewReplay(sigs, size)
			for _, kind := range []DetectorKind{DetectorBBV, DetectorBBVDDV, DetectorDDS} {
				for setting := 0; setting < 6; setting++ {
					thBBV, thDDS := pick(bbvs), pick(ddss)
					ids, box := replay.Classify(kind, thBBV, thDDS)
					if !box.Contains(thBBV, thDDS) {
						t.Fatalf("%v size %d: box %+v excludes its own setting (%g, %g)", kind, size, box, thBBV, thDDS)
					}
					for probe := 0; probe < 40; probe++ {
						b, d := pick(bbvs), pick(ddss)
						if probe%4 == 0 && !math.IsInf(box.HiBBV, 1) {
							b = math.Nextafter(box.HiBBV, math.Inf(-1))
						}
						if probe%4 == 1 && !math.IsInf(box.HiDDS, 1) {
							d = math.Nextafter(box.HiDDS, math.Inf(-1))
						}
						if !box.Contains(b, d) {
							continue
						}
						inside++
						if b != thBBV || d != thDDS {
							moved++
						}
						online := NewDetector(kind, 1, size, b, d).Table
						for i, s := range sigs {
							if want, _ := online.Classify(s.BBV, s.DDS); ids[i] != want {
								t.Fatalf("%v size %d: box %+v from (%g, %g) contains (%g, %g), but interval %d is %d there, not %d",
									kind, size, box, thBBV, thDDS, b, d, i, want, ids[i])
							}
						}
					}
				}
			}
		}
	}
	if moved < inside/2 || moved == 0 {
		t.Errorf("only %d of %d in-box probes moved off the classified setting", moved, inside)
	}
}

// TestReplayBoxEdges pins the box's shape: half-open at the smallest
// failing value on each axis the kind tests, unbounded on an axis it
// ignores.
func TestReplayBoxEdges(t *testing.T) {
	// Interval 1 is at BBV distance 1 from interval 0 and 0.5 from
	// interval 2's BBV; DDS deltas are 0.5 and 0.25.
	sigs := []IntervalSignature{
		{BBV: []float64{1, 0}, DDS: 0},
		{BBV: []float64{0.5, 0.5}, DDS: 0.5},
		{BBV: []float64{0.5, 0.5}, DDS: 0.25},
	}
	replay := NewReplay(sigs, 4)
	inf := math.Inf(1)
	cases := []struct {
		kind         DetectorKind
		thBBV, thDDS float64
		want         Box
	}{
		// Intervals 1 and 2 each fail BBV against 0 at distance 1;
		// interval 2 passes BBV against 1 (distance 0) and fails DDS
		// by 0.25 at thDDS 0.1.
		{DetectorBBV, 0.3, 0.1, Box{0.3, 1, -inf, inf}},
		{DetectorBBVDDV, 0.3, 0.1, Box{0.3, 1, 0.1, 0.25}},
		{DetectorBBVDDV, 0.3, 0.25, Box{0.3, 1, 0.25, inf}},
		{DetectorBBVDDV, 1, 0.1, Box{1, inf, 0.1, 0.25}},
		{DetectorDDS, 0.3, 0.1, Box{-inf, inf, 0.1, 0.25}},
	}
	for _, c := range cases {
		if _, got := replay.Classify(c.kind, c.thBBV, c.thDDS); got != c.want {
			t.Errorf("%v at (%g, %g): box %+v, want %+v", c.kind, c.thBBV, c.thDDS, got, c.want)
		}
	}
	if (Box{}).Contains(0, 0) {
		t.Error("the zero Box contains (0, 0); it must be empty")
	}
}
