package mobility

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
	"time"

	"perdnn/internal/geo"
	"perdnn/internal/trace"
)

// svrHash is the SHA-256 of a fitted SVR's weights, wx then wy,
// little-endian.
func svrHash(s *SVR) string {
	h := sha256.New()
	for _, w := range [][]float64{s.wx, s.wy} {
		if err := binary.Write(h, binary.LittleEndian, w); err != nil {
			panic(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSVRGolden pins the fitted SVR bit for bit, as TestForestGolden pins
// the forest, on the Geolife-like training split at 20 s with the city's
// history length and the seed as the simulator passes it. The hashes were
// captured while Fit still drew a fresh rand.Perm per epoch: the SGD must
// visit the windows in that order and sum each dot product in feature
// order, or they move.
func TestSVRGolden(t *testing.T) {
	for seed, want := range map[int64]string{
		1: "23dca53bf156e7ab000f8e307efbeb134731e1c1c462598aaa58949d3cd9076c",
		2: "cd2aab90e97a1efe306b2b26e6f492d3db6944b7e85bd2f1aca7f9554ab9b0c4",
	} {
		cfg := trace.GeolifeConfig()
		cfg.Seed = seed
		base, err := trace.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := base.Resample(20 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		pl := geo.NewPlacement(geo.NewHexGrid(geo.CellRadius), ds.AllPoints())
		s := &SVR{Seed: seed}
		if err := s.Fit(ds.Train, pl, HistoryLen); err != nil {
			t.Fatal(err)
		}
		if got := svrHash(s); got != want {
			t.Errorf("seed %d: SVR hash %s, want %s", seed, got, want)
		}
	}
}
