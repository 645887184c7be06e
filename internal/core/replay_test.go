package core

import (
	"fmt"
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
						got := replay.Classify(kind, thBBV, thDDS)
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
	if ids := NewReplay(nil, 4).Classify(DetectorBBV, 0.1, 0); len(ids) != 0 {
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
