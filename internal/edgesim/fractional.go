package edgesim

import (
	"context"
	"fmt"

	"perdnn/internal/geo"
)

// FractionalOutcome holds the Fig 10 experiment results: a full-migration
// run, a re-run with byte caps on the most crowded servers, and the derived
// statistics.
type FractionalOutcome struct {
	// Full is the unrestricted PerDNN run; Capped the fractional one.
	Full   *CityResult
	Capped *CityResult
	// Crowded lists the servers whose migration was capped, most loaded
	// first; CapBytes is the per-transfer byte budget applied to them.
	Crowded  []geo.ServerID
	CapBytes int64
}

// PeakUplinkReduction returns the fractional reduction of the most crowded
// server's peak uplink rate (the paper: 67% for Inception, 43% for ResNet).
func (o *FractionalOutcome) PeakUplinkReduction() float64 {
	_, full := o.Full.Traffic.PeakUp()
	_, capped := o.Capped.Traffic.PeakUp()
	if full == 0 {
		return 0
	}
	return 1 - capped/full
}

// QueryLoss returns the fractional reduction in cold-start-window queries
// (the paper: 1-2%).
func (o *FractionalOutcome) QueryLoss() float64 {
	if o.Full.WindowQueries == 0 {
		return 0
	}
	return 1 - float64(o.Capped.WindowQueries)/float64(o.Full.WindowQueries)
}

// RunFractional reproduces the Fig 10 protocol: run PerDNN with full
// migration, select the crowdedShare (e.g. 0.06 for the paper's top 5-7%)
// most loaded servers by peak uplink, cap their migration transfers to
// capBytes, and re-run. Both runs observe ctx as RunCityContext does.
func RunFractional(ctx context.Context, env *Env, cfg CityConfig, crowdedShare float64, capBytes int64) (*FractionalOutcome, error) {
	if cfg.Mode != ModePerDNN {
		return nil, fmt.Errorf("edgesim: fractional migration requires ModePerDNN, got %v", cfg.Mode)
	}
	if crowdedShare <= 0 || crowdedShare >= 1 {
		return nil, fmt.Errorf("edgesim: crowded share %v out of (0,1)", crowdedShare)
	}
	if capBytes <= 0 {
		return nil, fmt.Errorf("edgesim: cap bytes %d", capBytes)
	}
	fullCfg := cfg
	fullCfg.FractionCapBytes = nil
	full, err := RunCityContext(ctx, env, fullCfg)
	if err != nil {
		return nil, err
	}

	k := int(crowdedShare * float64(env.Placement.Len()))
	if k < 1 {
		k = 1
	}
	crowded := full.Traffic.TopByPeakUp(k)
	caps := make(map[geo.ServerID]int64, len(crowded))
	for _, id := range crowded {
		caps[id] = capBytes
	}
	cappedCfg := cfg
	cappedCfg.FractionCapBytes = caps
	capped, err := RunCityContext(ctx, env, cappedCfg)
	if err != nil {
		return nil, err
	}
	return &FractionalOutcome{
		Full:     full,
		Capped:   capped,
		Crowded:  crowded,
		CapBytes: capBytes,
	}, nil
}
