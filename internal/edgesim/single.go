package edgesim

import (
	"fmt"
	"math"
	"time"

	"perdnn/internal/dnn"
	"perdnn/internal/partition"
	"perdnn/internal/profile"
)

// queryGap is the pause between a query's completion and the client's next
// query (0.5 s in Section IV.A). The single-client experiments (Fig 1, Fig
// 7, Table II, the upload-order ablation, the multi-DNN extension) use it
// on the lab Wi-Fi (partition.LabWiFi); city runs default to it.
const queryGap = 500 * time.Millisecond

// SingleConfig describes the single-client experiment of Section IV.A: a
// client issues DNN queries while incrementally uploading its model to edge
// server A, then switches to edge server B mid-run. With MigrateFraction ==
// 0 nothing is migrated ahead of time (the IONN baseline); with a positive
// fraction, that share of the server-side bytes (in efficiency order) is
// already at B when the client arrives (PM).
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
}

// DefaultSingleConfig returns the Fig 1 setup for the given model.
func DefaultSingleConfig(model dnn.ModelName) SingleConfig {
	return SingleConfig{Model: model, NumQueries: 40, SwitchAfterQueries: 20}
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
	prof, plan, sched, err := labPlan(cfg.Model)
	if err != nil {
		return nil, err
	}
	splits := partition.ScheduleSplits(prof, sched)
	res := &SingleResult{
		Queries:     make([]QueryRecord, 0, cfg.NumQueries),
		ServerBytes: plan.ServerBytes(),
		UploadTime:  partition.LabWiFi().UpTime(plan.ServerBytes()),
	}
	migrated := 0
	if cfg.MigrateFraction > 0 {
		pre := partition.TruncateSchedule(sched, int64(cfg.MigrateFraction*float64(plan.ServerBytes())))
		migrated = len(pre)
		res.MigratedBytes = partition.ScheduleBytes(pre)
	}
	at := func(server int) func(int, time.Duration, time.Duration) {
		return func(_ int, issued, lat time.Duration) {
			res.Queries = append(res.Queries, QueryRecord{Issued: issued, Latency: lat, Server: server})
		}
	}
	// Server A starts empty at t = 0. Server B holds the migrated prefix
	// when the client arrives and uploads the rest from then on.
	res.SwitchAt = replay([]replayModel{{sched: sched, splits: splits}}, make([]int, len(sched)),
		0, cfg.SwitchAfterQueries, math.MaxInt64, at(0))
	replay([]replayModel{{sched: sched, splits: splits, held: migrated}}, make([]int, len(sched)-migrated),
		res.SwitchAt, cfg.NumQueries-cfg.SwitchAfterQueries, math.MaxInt64, at(1))
	return res, nil
}

// UploadReplay counts the queries a client completes within `window` while
// uploading a model's server side, from an empty server, following an
// arbitrary unit schedule (used by the upload-order ablation).
func UploadReplay(model dnn.ModelName, sched []partition.UploadUnit, window time.Duration) (int, error) {
	prof, _, _, err := labPlan(model)
	if err != nil {
		return 0, err
	}
	return uploadCount(partition.ScheduleSplits(prof, sched), sched, 0, window), nil
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

// RunUploadThroughput measures the Table II row for one model: two replays
// over the efficiency-first schedule within the full-upload window, from an
// empty server (miss) and from a complete one (hit).
func RunUploadThroughput(model dnn.ModelName) (*UploadThroughput, error) {
	prof, plan, sched, err := labPlan(model)
	if err != nil {
		return nil, err
	}
	splits := partition.ScheduleSplits(prof, sched)
	window := partition.LabWiFi().UpTime(plan.ServerBytes())
	return &UploadThroughput{
		Model:      model,
		UploadTime: window,
		MissCount:  uploadCount(splits, sched, 0, window),
		HitCount:   uploadCount(splits, sched, len(sched), window),
	}, nil
}

// uploadCount counts the queries that end within window while a server
// holding the first `held` units of sched uploads the rest.
func uploadCount(splits []partition.Split, sched []partition.UploadUnit, held int, window time.Duration) int {
	n := 0
	replay([]replayModel{{sched: sched, splits: splits, held: held}}, make([]int, len(sched)-held),
		0, math.MaxInt, window, func(int, time.Duration, time.Duration) { n++ })
	return n
}

// labPlan profiles a zoo model on the paper's ODROID client and Titan Xp
// server and plans it, with its efficiency-first upload schedule, for an
// uncontended server on the lab link.
func labPlan(model dnn.ModelName) (*profile.ModelProfile, *partition.Plan, []partition.UploadUnit, error) {
	m, err := dnn.ZooModel(model)
	if err != nil {
		return nil, nil, nil, err
	}
	prof := profile.NewModelProfile(m, profile.ClientODROID(), profile.ServerTitanXp())
	plan, sched, err := partition.PlanAndSchedule(partition.Request{Profile: prof, Slowdown: 1, Link: partition.LabWiFi()})
	if err != nil {
		return nil, nil, nil, err
	}
	return prof, plan, sched, nil
}

// replayModel is one model the replayed client queries.
type replayModel struct {
	// sched is the model's upload schedule and splits its
	// partition.ScheduleSplits: splits[k] prices a query with the first k
	// units at the server.
	sched  []partition.UploadUnit
	splits []partition.Split
	// held is how many units of sched the server holds.
	held int
}

// replay advances one client against one uncontended server. From start,
// units upload back to back over the lab link: order[i] names the model
// whose next unit of sched is the i-th to upload. Meanwhile the client
// queries the models round robin, pausing queryGap after each query, and a
// query costs its model's latency at the prefix held when it is issued.
// The replay stops after budget queries, or before the first query that
// would end past deadline (math.MaxInt64: none). It hands each query to
// emit and returns the time the next query would be issued.
func replay(models []replayModel, order []int, start time.Duration, budget int, deadline time.Duration, emit func(model int, issued, lat time.Duration)) time.Duration {
	link := partition.LabWiFi()
	now, uploaded, next := start, start, 0 // uploaded: when order[:next] finished
	for q := 0; q < budget; q++ {
		for ; next < len(order); next++ {
			m := &models[order[next]]
			done := uploaded + link.UpTime(m.sched[m.held].Bytes)
			if now < done {
				break
			}
			uploaded = done
			m.held++
		}
		m := &models[q%len(models)]
		lat := m.splits[m.held].Latency(link, 1)
		if now+lat > deadline {
			break
		}
		emit(q%len(models), now, lat)
		now += lat + queryGap
	}
	return now
}
