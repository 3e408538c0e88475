package edgesim

import (
	"fmt"
	"time"

	"perdnn/internal/dnn"
	"perdnn/internal/obs/tracing"
	"perdnn/internal/partition"
	"perdnn/internal/profile"
)

// PipelineConfig describes the pipelined-chain experiment: one client
// streams queries through a multi-hop chain planned by partition.PlanChain,
// and every stage (client prefix, each transfer link, each hop's GPU, the
// trip home) is a FIFO resource serving one query at a time, so queries
// overlap across stages exactly as they would in a SEIFER-style pipeline.
type PipelineConfig struct {
	// Model is the zoo model to run.
	Model dnn.ModelName
	// NumQueries is the number of queries streamed through the chain.
	NumQueries int
	// Servers are the candidate chain servers handed to the planner.
	Servers []partition.ServerSpec
	// MaxHops caps the number of chain segments (K). 1 reproduces the
	// classic single-split pipeline; 0 means len(Servers).
	MaxHops int
	// Objective selects what the planner minimizes.
	Objective partition.Objective
	// IssueGap is the pause between consecutive query issues; 0 saturates
	// the pipeline (the throughput-measurement regime).
	IssueGap time.Duration
	// Link is the client's wireless access link.
	Link partition.Link
	// RecordSpans enables the run's tracing journal: one trace per query
	// whose child stage spans tile the root query span exactly.
	RecordSpans bool
}

// DefaultPipelineConfig returns a saturated 64-query run over the given
// candidate servers.
func DefaultPipelineConfig(model dnn.ModelName, servers []partition.ServerSpec, maxHops int, obj partition.Objective) PipelineConfig {
	return PipelineConfig{
		Model:      model,
		NumQueries: 64,
		Servers:    servers,
		MaxHops:    maxHops,
		Objective:  obj,
		Link:       partition.LabWiFi(),
	}
}

// PipelineResult holds the pipelined run's outputs.
type PipelineResult struct {
	// Plan is the chain the run executed.
	Plan *partition.ChainPlan
	// Completions are per-query completion times in issue order.
	Completions []time.Duration
	// SumLatency is the summed per-query end-to-end latency (completion
	// minus issue; in the saturated regime later queries queue, so the mean
	// grows with depth while throughput stays flat).
	SumLatency time.Duration
	// Throughput is the steady-state rate in queries per second, measured
	// from the completion spacing of the streamed queries.
	Throughput float64
	// ObservedBottleneck is the mean completion spacing — the empirical
	// slowest-stage time (1/Throughput). Stages model each link and GPU as
	// its own resource, so it is at most the plan's combined
	// transfer+exec Bottleneck estimate.
	ObservedBottleneck time.Duration
	// Spans is the run's tracing journal (nil unless RecordSpans was set).
	Spans []tracing.Span
}

// pipeStage is one FIFO resource of the pipeline with its fixed per-query
// service time.
type pipeStage struct {
	stage   tracing.Stage
	node    string
	service time.Duration
	free    time.Duration // when the resource next becomes idle
	isExec  bool          // split the span into exec.queue + exec.compute
}

// pipelineStages flattens a chain plan into the FIFO stage sequence a query
// traverses: client prefix, uplink, then each hop's GPU with its ingress
// link, and finally the downlink plus client suffix.
func pipelineStages(plan *partition.ChainPlan, link partition.Link) []pipeStage {
	const client = "client/0"
	stages := make([]pipeStage, 0, 2*len(plan.Hops)+3)
	stages = append(stages, pipeStage{stage: tracing.StageClientCompute, node: client, service: plan.ClientPre})
	for i := range plan.Hops {
		hop := &plan.Hops[i]
		transfer := tracing.StageTransferUp
		if i > 0 {
			transfer = tracing.StageTransferHop
		}
		node := fmt.Sprintf("server/%d", hop.Server.ID)
		stages = append(stages,
			pipeStage{stage: transfer, node: client, service: hop.Transfer},
			pipeStage{stage: tracing.StageExecCompute, node: node, service: hop.Exec, isExec: true},
		)
	}
	if len(plan.Hops) > 0 {
		stages = append(stages, pipeStage{stage: tracing.StageTransferDown, node: client, service: link.DownTime(plan.DownBytes)})
	}
	stages = append(stages, pipeStage{stage: tracing.StageClientCompute, node: client, service: plan.ClientPost})
	return stages
}

// RunPipeline executes the pipelined-chain scenario deterministically. The
// recurrence per stage s and query q is
//
//	start = max(arrival, free[s]); done = start + service[s]
//
// with arrival the previous stage's completion for the same query — a
// tandem queueing network with deterministic service times, so the run is
// a pure function of its config and steady-state throughput equals the
// reciprocal of the slowest stage.
func RunPipeline(cfg PipelineConfig) (*PipelineResult, error) {
	if cfg.NumQueries <= 0 {
		return nil, fmt.Errorf("edgesim: non-positive query count %d", cfg.NumQueries)
	}
	if cfg.IssueGap < 0 {
		return nil, fmt.Errorf("edgesim: negative issue gap %v", cfg.IssueGap)
	}
	m, err := dnn.ZooModel(cfg.Model)
	if err != nil {
		return nil, err
	}
	prof := profile.NewModelProfile(m, profile.ClientODROID(), profile.ServerTitanXp())
	plan, err := partition.PlanChain(partition.ChainRequest{
		Profile:   prof,
		Link:      cfg.Link,
		Servers:   cfg.Servers,
		MaxHops:   cfg.MaxHops,
		Objective: cfg.Objective,
	})
	if err != nil {
		return nil, err
	}

	stages := pipelineStages(plan, cfg.Link)
	res := &PipelineResult{
		Plan:        plan,
		Completions: make([]time.Duration, 0, cfg.NumQueries),
	}
	var tracer *tracing.Tracer
	if cfg.RecordSpans {
		tracer = tracing.New()
	}

	for q := 0; q < cfg.NumQueries; q++ {
		issue := time.Duration(q) * cfg.IssueGap
		var qt tracing.TraceID
		var root tracing.SpanID
		if tracer != nil {
			qt = tracer.NewTrace()
			root = tracer.NewSpanID()
		}
		at := issue
		for s := range stages {
			st := &stages[s]
			arrival := at
			start := arrival
			if st.free > start {
				start = st.free
			}
			done := start + st.service
			st.free = done
			if tracer != nil {
				// Child spans tile [issue, done]: each span runs from the
				// query's arrival at the stage to its completion there, so
				// queue wait is inside the stage that caused it. Exec
				// stages split the wait out as an explicit queue span.
				if st.isExec {
					tracer.Record(qt, root, tracing.StageExecQueue, st.node, arrival, start)
					tracer.Record(qt, root, tracing.StageExecCompute, st.node, start, done)
				} else {
					tracer.Record(qt, root, st.stage, st.node, arrival, done)
				}
			}
			at = done
		}
		if tracer != nil {
			tracer.RecordWith(qt, root, 0, tracing.StageQuery, "client/0", issue, at)
		}
		res.Completions = append(res.Completions, at)
		res.SumLatency += at - issue
	}

	last := res.Completions[len(res.Completions)-1]
	if n := len(res.Completions); n >= 2 {
		span := last - res.Completions[0]
		res.ObservedBottleneck = span / time.Duration(n-1)
		res.Throughput = float64(n-1) / span.Seconds()
	} else {
		res.ObservedBottleneck = last
		res.Throughput = 1 / last.Seconds()
	}
	if tracer != nil {
		res.Spans = tracer.Spans()
	}
	return res, nil
}

// PipelineOutcome is the result of one pipeline sweep cell, stored at the
// same index as its config. Exactly one of Result and Err is non-nil.
type PipelineOutcome struct {
	Cfg    PipelineConfig
	Result *PipelineResult
	Err    error
}

// RunPipelineSweep executes the given pipeline runs concurrently on a
// bounded worker pool and returns their outcomes in input order. Each run
// is a pure function of its config, so the outcomes — spans included — are
// byte-identical at every worker count. workers <= 0 uses GOMAXPROCS.
func RunPipelineSweep(cfgs []PipelineConfig, workers int) []PipelineOutcome {
	out := make([]PipelineOutcome, len(cfgs))
	forEachOrdered(len(cfgs), workers, func(i int) {
		res, err := RunPipeline(cfgs[i])
		out[i] = PipelineOutcome{Cfg: cfgs[i], Result: res, Err: err}
	})
	return out
}
