package edgesim

import (
	"fmt"
	"math"
	"time"

	"perdnn/internal/dnn"
	"perdnn/internal/partition"
)

// The paper's future work (Section VI) includes "applications
// simultaneously running multiple DNNs". RunMultiDNN is that extension of
// the single-client scenario: a client interleaves queries over several
// models while uploading all of them over one uplink.

// UploadStrategy orders uploads across multiple models.
type UploadStrategy int

// Upload strategies for multi-DNN clients.
const (
	// UploadSequential ships model 0's full schedule, then model 1's, ...
	UploadSequential UploadStrategy = iota + 1
	// UploadJoint merges every model's schedule units into one
	// efficiency-ranked order, so all models improve together.
	UploadJoint
)

// String implements fmt.Stringer.
func (s UploadStrategy) String() string {
	switch s {
	case UploadSequential:
		return "sequential"
	case UploadJoint:
		return "joint"
	default:
		return fmt.Sprintf("UploadStrategy(%d)", int(s))
	}
}

// MultiConfig parameterizes a multi-DNN single-client run.
type MultiConfig struct {
	// Models are the DNNs the client cycles through (one query each, round
	// robin).
	Models []dnn.ModelName
	// Duration is the simulated time span.
	Duration time.Duration
	// Strategy orders the uploads.
	Strategy UploadStrategy
}

// DefaultMultiConfig runs Inception and ResNet side by side for the time it
// takes to upload both.
func DefaultMultiConfig(strategy UploadStrategy) MultiConfig {
	return MultiConfig{
		Models:   []dnn.ModelName{dnn.ModelInception, dnn.ModelResNet},
		Duration: time.Minute,
		Strategy: strategy,
	}
}

// MultiQuery is one executed query of a multi-DNN run.
type MultiQuery struct {
	Model   int // index into MultiConfig.Models
	Issued  time.Duration
	Latency time.Duration
}

// MultiResult holds a multi-DNN run's outputs.
type MultiResult struct {
	Strategy UploadStrategy
	Queries  []MultiQuery
	// UploadDone is when the last layer finished uploading.
	UploadDone time.Duration
}

// MeanLatencyPerModel returns the per-model mean latencies.
func (r *MultiResult) MeanLatencyPerModel(numModels int) []time.Duration {
	sums := make([]time.Duration, numModels)
	counts := make([]int, numModels)
	for _, q := range r.Queries {
		sums[q.Model] += q.Latency
		counts[q.Model]++
	}
	out := make([]time.Duration, numModels)
	for i := range out {
		if counts[i] > 0 {
			out[i] = sums[i] / time.Duration(counts[i])
		}
	}
	return out
}

// RunMultiDNN simulates a client running several DNNs concurrently against
// one uncontended edge server while uploading them all.
func RunMultiDNN(cfg MultiConfig) (*MultiResult, error) {
	if len(cfg.Models) < 2 {
		return nil, fmt.Errorf("edgesim: multi-DNN run needs >= 2 models, got %d", len(cfg.Models))
	}
	if cfg.Strategy != UploadSequential && cfg.Strategy != UploadJoint {
		return nil, fmt.Errorf("edgesim: invalid upload strategy %d", int(cfg.Strategy))
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("edgesim: non-positive duration %v", cfg.Duration)
	}
	res := &MultiResult{Strategy: cfg.Strategy}
	models := make([]replayModel, len(cfg.Models))
	for i, name := range cfg.Models {
		prof, _, sched, err := labPlan(name)
		if err != nil {
			return nil, err
		}
		models[i] = replayModel{sched: sched, splits: partition.ScheduleSplits(prof, sched)}
		for _, u := range sched {
			res.UploadDone += partition.LabWiFi().UpTime(u.Bytes)
		}
	}
	replay(models, uploadOrder(models, cfg.Strategy), 0, math.MaxInt, cfg.Duration, func(m int, issued, lat time.Duration) {
		res.Queries = append(res.Queries, MultiQuery{Model: m, Issued: issued, Latency: lat})
	})
	return res, nil
}

// uploadOrder is the order in which the models' units share the uplink, as
// replay takes it: each model's whole schedule in turn (sequential), or a
// k-way merge that always ships the model whose next unit has the highest
// efficiency (joint).
func uploadOrder(models []replayModel, strategy UploadStrategy) []int {
	var order []int
	heads := make([]int, len(models))
	for {
		best := -1
		for m := range models {
			if heads[m] == len(models[m].sched) {
				continue
			}
			if best < 0 || strategy == UploadJoint && models[m].sched[heads[m]].Efficiency > models[best].sched[heads[best]].Efficiency {
				best = m
			}
		}
		if best < 0 {
			return order
		}
		order = append(order, best)
		heads[best]++
	}
}
