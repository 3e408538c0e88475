package edgesim

import (
	"fmt"
	"time"

	"perdnn/internal/dnn"
	"perdnn/internal/partition"
	"perdnn/internal/profile"
)

// SingleConfig describes the single-client experiment of Section IV.A: a
// client issues DNN queries 0.5 s apart while incrementally uploading its
// model to edge server A, then switches to edge server B mid-run. With
// MigrateFraction == 0 nothing is migrated ahead of time (the IONN
// baseline); with a positive fraction, that share of the server-side bytes
// (in efficiency order) is already at B when the client arrives (PM).
type SingleConfig struct {
	// Model is the zoo model to run.
	Model dnn.ModelName
	// NumQueries is the total number of queries to issue (40 in Fig 1).
	NumQueries int
	// SwitchAfterQueries is how many queries run against server A before
	// the client moves to server B (20 in Fig 1: the spike is at the 21st).
	SwitchAfterQueries int
	// MigrateFraction in [0,1] is the share of server-side bytes
	// proactively migrated to B, taken as a prefix of the efficiency-first
	// schedule. 0 reproduces IONN; 1 reproduces full PM.
	MigrateFraction float64
	// QueryGap is the pause between a query's completion and the next
	// query (0.5 s in the paper).
	QueryGap time.Duration
	// Link is the wireless access link (the paper's lab Wi-Fi by default).
	Link partition.Link
}

// DefaultSingleConfig returns the Fig 1 setup for the given model.
func DefaultSingleConfig(model dnn.ModelName) SingleConfig {
	return SingleConfig{
		Model:              model,
		NumQueries:         40,
		SwitchAfterQueries: 20,
		MigrateFraction:    0,
		QueryGap:           500 * time.Millisecond,
		Link:               partition.LabWiFi(),
	}
}

// QueryRecord is one executed query.
type QueryRecord struct {
	// Issued is the virtual time the query was raised.
	Issued time.Duration
	// Latency is its end-to-end execution time.
	Latency time.Duration
	// Server is 0 while attached to server A, 1 after the switch.
	Server int
}

// SingleResult holds the single-client experiment outputs.
type SingleResult struct {
	Queries []QueryRecord
	// MigratedBytes is what was proactively moved to server B.
	MigratedBytes int64
	// ServerBytes is the full server-side plan size.
	ServerBytes int64
	// UploadTime is the time to upload the full server side at link speed.
	UploadTime time.Duration
	// SwitchAt is when the client moved to server B.
	SwitchAt time.Duration
}

// PeakAfterSwitch returns the worst query latency at server B — the
// cold-start spike PM is designed to remove.
func (r *SingleResult) PeakAfterSwitch() time.Duration {
	var peak time.Duration
	for _, q := range r.Queries {
		if q.Server == 1 && q.Latency > peak {
			peak = q.Latency
		}
	}
	return peak
}

// RunSingle executes the scenario deterministically (no contention: both
// servers serve only this client, so ground-truth times equal the base
// profile).
func RunSingle(cfg SingleConfig) (*SingleResult, error) {
	if cfg.NumQueries <= 0 || cfg.SwitchAfterQueries < 0 || cfg.SwitchAfterQueries > cfg.NumQueries {
		return nil, fmt.Errorf("edgesim: bad query counts %d/%d", cfg.NumQueries, cfg.SwitchAfterQueries)
	}
	if cfg.MigrateFraction < 0 || cfg.MigrateFraction > 1 {
		return nil, fmt.Errorf("edgesim: migrate fraction %v out of [0,1]", cfg.MigrateFraction)
	}
	m, err := dnn.ZooModel(cfg.Model)
	if err != nil {
		return nil, err
	}
	prof := profile.NewModelProfile(m, profile.ClientODROID(), profile.ServerTitanXp())
	req := partition.Request{Profile: prof, Slowdown: 1, Link: cfg.Link}
	plan, err := partition.Partition(req)
	if err != nil {
		return nil, err
	}
	sched, err := partition.UploadSchedule(req, plan)
	if err != nil {
		return nil, err
	}

	// Latency after each schedule prefix (uploads follow the schedule, and
	// fractional migration takes a prefix, so every reachable state is a
	// prefix).
	prefixLat := prefixLatencies(prof, sched, cfg.Link)
	// Unit completion offsets from upload start.
	unitDone := make([]time.Duration, len(sched))
	var cum time.Duration
	for i, u := range sched {
		cum += cfg.Link.UpTime(u.Bytes)
		unitDone[i] = cum
	}

	res := &SingleResult{
		Queries:     make([]QueryRecord, 0, cfg.NumQueries),
		ServerBytes: plan.ServerBytes(),
		UploadTime:  cfg.Link.UpTime(plan.ServerBytes()),
	}

	// Pre-migrated prefix at server B.
	preUnits := 0
	if cfg.MigrateFraction > 0 {
		budget := int64(cfg.MigrateFraction * float64(plan.ServerBytes()))
		pre := partition.TruncateSchedule(sched, budget)
		preUnits = len(pre)
		res.MigratedBytes = partition.ScheduleBytes(pre)
	}

	// prefixAt returns the number of schedule units present at the current
	// server at time now, given the server's upload start time and its
	// initial prefix.
	prefixAt := func(now, uploadStart time.Duration, initial int) int {
		k := initial
		for k < len(sched) {
			// Uploading resumes at unit `initial`; completion time of unit
			// j (j >= initial) is uploadStart + (unitDone[j] - base).
			var base time.Duration
			if initial > 0 {
				base = unitDone[initial-1]
			}
			if now >= uploadStart+(unitDone[k]-base) {
				k++
				continue
			}
			break
		}
		return k
	}

	now := time.Duration(0)
	server := 0
	uploadStart := time.Duration(0)
	initial := 0
	for q := 0; q < cfg.NumQueries; q++ {
		if q == cfg.SwitchAfterQueries && cfg.SwitchAfterQueries > 0 {
			server = 1
			uploadStart = now
			initial = preUnits
			res.SwitchAt = now
		}
		k := prefixAt(now, uploadStart, initial)
		lat := prefixLat[k]
		res.Queries = append(res.Queries, QueryRecord{Issued: now, Latency: lat, Server: server})
		now += lat + cfg.QueryGap
	}
	return res, nil
}

// UploadReplay counts the queries a client completes within `window` while
// uploading a model's server side following an arbitrary unit schedule
// (used by the upload-order ablation). preUnits schedule units are already
// present at the server when the replay starts.
func UploadReplay(model dnn.ModelName, gap time.Duration, link partition.Link, sched []partition.UploadUnit, window time.Duration, preUnits int) (int, error) {
	m, err := dnn.ZooModel(model)
	if err != nil {
		return 0, err
	}
	prof := profile.NewModelProfile(m, profile.ClientODROID(), profile.ServerTitanXp())

	prefixLat := prefixLatencies(prof, sched, link)
	unitDone := make([]time.Duration, len(sched))
	var cum time.Duration
	for i := preUnits; i < len(sched); i++ {
		cum += link.UpTime(sched[i].Bytes)
		unitDone[i] = cum
	}

	now := time.Duration(0)
	count := 0
	k := preUnits
	for {
		for k < len(sched) && now >= unitDone[k] {
			k++
		}
		done := now + prefixLat[k]
		if done > window {
			break
		}
		count++
		now = done + gap
	}
	return count, nil
}

// UploadThroughput reproduces one column of Table II: the number of queries
// a client executes during the time it takes to upload the full model, in
// the miss case (uploading from scratch, IONN) and the hit case (all layers
// already at the server, PerDNN's best case).
type UploadThroughput struct {
	Model      dnn.ModelName
	UploadTime time.Duration
	MissCount  int
	HitCount   int
}

// RunUploadThroughput measures the Table II row for one model: two
// UploadReplays over the efficiency-first schedule within the full-upload
// window, from an empty server (miss) and from a complete one (hit).
func RunUploadThroughput(model dnn.ModelName, gap time.Duration, link partition.Link) (*UploadThroughput, error) {
	m, err := dnn.ZooModel(model)
	if err != nil {
		return nil, err
	}
	prof := profile.NewModelProfile(m, profile.ClientODROID(), profile.ServerTitanXp())
	req := partition.Request{Profile: prof, Slowdown: 1, Link: link}
	plan, err := partition.Partition(req)
	if err != nil {
		return nil, err
	}
	sched, err := partition.UploadSchedule(req, plan)
	if err != nil {
		return nil, err
	}
	window := link.UpTime(plan.ServerBytes())
	miss, err := UploadReplay(model, gap, link, sched, window, 0)
	if err != nil {
		return nil, err
	}
	hit, err := UploadReplay(model, gap, link, sched, window, len(sched))
	if err != nil {
		return nil, err
	}
	return &UploadThroughput{Model: model, UploadTime: window, MissCount: miss, HitCount: hit}, nil
}
