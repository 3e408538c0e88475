package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"perdnn/internal/obs/tracing"
)

// interval is a half-open span of tracer time.
type interval struct{ start, end time.Duration }

// selfTime is a span's duration minus the part of its interval that its
// children cover. Children are clipped to the span and may overlap each
// other or leave gaps.
func selfTime(span interval, children []interval) time.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		c.start, c.end = max(c.start, span.start), min(c.end, span.end)
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, k int) bool { return clipped[i].start < clipped[k].start })
	covered, edge := time.Duration(0), span.start
	for _, c := range clipped {
		if c.end <= edge {
			continue
		}
		covered += c.end - max(c.start, edge)
		edge = c.end
	}
	return span.end - span.start - covered
}

func ivOf(s *tracing.Span) interval { return interval{s.Start, s.End} }

// spanIndex groups a journal by trace.
type spanIndex struct {
	spans   []tracing.Span
	byTrace map[tracing.TraceID][]int
}

func indexSpans(spans []tracing.Span) *spanIndex {
	ix := &spanIndex{spans: spans, byTrace: make(map[tracing.TraceID][]int, len(spans)/3+1)}
	for i := range spans {
		ix.byTrace[spans[i].Trace] = append(ix.byTrace[spans[i].Trace], i)
	}
	return ix
}

// children returns the spans of parent's trace whose Parent is parent.
func (ix *spanIndex) children(parent *tracing.Span) []*tracing.Span {
	var out []*tracing.Span
	for _, i := range ix.byTrace[parent.Trace] {
		if s := &ix.spans[i]; s.Parent == parent.ID && s.ID != parent.ID {
			out = append(out, s)
		}
	}
	return out
}

// selfOf is selfTime of a span against its children in the journal.
func (ix *spanIndex) selfOf(s *tracing.Span) time.Duration {
	kids := ix.children(s)
	ivs := make([]interval, len(kids))
	for i, k := range kids {
		ivs[i] = ivOf(k)
	}
	return selfTime(ivOf(s), ivs)
}

// isBench reports whether a span was recorded by the bench driver.
func isBench(s *tracing.Span) bool { return strings.HasPrefix(string(s.Stage), "bench.") }

// benchWorkerOf maps a span's node to the driver goroutine that caused it:
// "bench/<g>" directly, "client/<id>" through the ID scheme (client IDs
// are 1 + g + n*C). Other nodes return -1.
func benchWorkerOf(node string, clients int) int {
	kind, num, ok := strings.Cut(node, "/")
	if !ok {
		return -1
	}
	n, err := strconv.Atoi(num)
	if err != nil {
		return -1
	}
	switch kind {
	case "bench":
		return n
	case "client":
		return (n - 1) % clients
	}
	return -1
}

// stitchBenchSpans makes every bench span the parent of the client root
// span it encloses, and moves it into that span's trace, so the journal
// reads as one tree per mobile call. A driver goroutine's calls are
// sequential, so within one goroutine enclosure is unambiguous.
func stitchBenchSpans(spans []tracing.Span, clients int) {
	bench := make([][]int, clients)
	roots := make([][]int, clients)
	for i := range spans {
		s := &spans[i]
		g := benchWorkerOf(s.Node, clients)
		if g < 0 || g >= clients {
			continue
		}
		switch {
		case isBench(s):
			bench[g] = append(bench[g], i)
		case s.Parent == 0 && s.End > s.Start:
			roots[g] = append(roots[g], i)
		}
	}
	byStart := func(ix []int) {
		sort.Slice(ix, func(a, b int) bool { return spans[ix[a]].Start < spans[ix[b]].Start })
	}
	for g := 0; g < clients; g++ {
		byStart(bench[g])
		byStart(roots[g])
		b := 0
		for _, ri := range roots[g] {
			root := &spans[ri]
			for b < len(bench[g]) && spans[bench[g][b]].End < root.End {
				b++
			}
			if b == len(bench[g]) {
				break
			}
			if outer := &spans[bench[g][b]]; outer.Start <= root.Start {
				root.Parent = outer.ID
				outer.Trace = root.Trace
			}
		}
	}
}

// emitBudget writes one budget row, per-op self times in nanoseconds: the
// p50 under name and the mean under name+".mean". It sorts ns.
func emitBudget(r *result, name string, ns []int64) {
	t := (&samples{v: ns}).summarize()
	r.set(name, t.P50)
	r.set(name+".mean", t.Mean)
}

// liveBudget turns the traced phase's spans into the latency budget,
// validates them and writes the span files.
func liveBudget(ph *livePhase, spec liveSpec, o options, r *result) error {
	spans := ph.spans
	if len(spans) == 0 {
		return fmt.Errorf("traced phase recorded no spans")
	}
	clients := len(ph.workers)
	stitchBenchSpans(spans, clients)
	ix := indexSpans(spans)

	var qClient, qWire, qQueue, qCompute, qHop []int64
	var aWire, aPlan, aResync []int64
	var execNs, execN int64
	var reports, migrates []*tracing.Span
	for i := range spans {
		s := &spans[i]
		switch {
		case s.Stage == stageBenchQry:
			root := onlyChild(ix, s, tracing.StageQuery)
			if root == nil {
				continue
			}
			var compute, queue, exec, hop time.Duration
			for _, ti := range ix.byTrace[s.Trace] {
				switch t := &spans[ti]; t.Stage {
				case tracing.StageClientCompute:
					compute += t.Duration()
				case tracing.StageExecQueue:
					queue += t.Duration()
				case tracing.StageExecCompute:
					exec += t.Duration()
				case tracing.StageTransferHop:
					hop += ix.selfOf(t)
				}
			}
			qClient = append(qClient, int64(s.Duration()-root.Duration()+compute))
			qWire = append(qWire, int64(ix.selfOf(root)))
			qQueue = append(qQueue, int64(queue))
			qCompute = append(qCompute, int64(exec))
			qHop = append(qHop, int64(hop))
		case s.Stage == stageBenchAtt:
			plan := onlyChild(ix, s, tracing.StagePlan)
			if plan == nil {
				continue
			}
			var inMaster time.Duration
			for _, k := range ix.children(plan) {
				if k.Stage == tracing.StagePlan {
					inMaster += k.Duration()
				}
			}
			aPlan = append(aPlan, int64(inMaster))
			aWire = append(aWire, int64(ix.selfOf(plan)))
			aResync = append(aResync, int64(s.Duration()-plan.Duration()))
		case s.Stage == stageBenchRep:
			reports = append(reports, s)
		case s.Stage == tracing.StageMigrate && s.Parent == 0:
			migrates = append(migrates, s)
		case s.Stage == tracing.StageExecCompute:
			execNs += int64(s.Duration())
			execN++
		case s.Stage == tracing.StageExecQueue:
			execNs += int64(s.Duration())
		}
	}
	emitBudget(r, "budget.query.client_ns", qClient)
	emitBudget(r, "budget.query.wire_ns", qWire)
	emitBudget(r, "budget.query.exec_queue_ns", qQueue)
	emitBudget(r, "budget.query.exec_compute_ns", qCompute)
	emitBudget(r, "budget.query.hop_ns", qHop)
	emitBudget(r, "budget.attach.wire_ns", aWire)
	emitBudget(r, "budget.attach.master_plan_ns", aPlan)
	emitBudget(r, "budget.attach.edge_resync_ns", aResync)
	r.set("edged.exec_handler_ns", float64(execNs)/float64(max(execN, 1)))
	if spec.sessions {
		reportBudget(reports, migrates, r)
	}

	var all worker
	for _, w := range ph.workers {
		w.mergeInto(&all)
	}
	emitBudget(r, "budget.coldstart.register_ns", all.register.v)
	emitBudget(r, "budget.coldstart.attach_ns", all.csAttach.v)
	emitBudget(r, "budget.coldstart.upload_ns", all.csUpload.v)
	emitBudget(r, "budget.coldstart.first_query_ns", all.csQuery.v)
	return writeSpans(o.outDir, r.Workload, spans, r)
}

// onlyChild returns the child of s with the given stage, or nil.
func onlyChild(ix *spanIndex, s *tracing.Span, stage tracing.Stage) *tracing.Span {
	for _, k := range ix.children(s) {
		if k.Stage == stage {
			return k
		}
	}
	return nil
}

// reportBudget splits ReportLocationContext calls. The master records no
// span for the report itself, only a root span per migration it orders, so
// those are matched to the report that encloses them in time. Two clients'
// reports can overlap; a report another one overlaps is left out, because
// its migrations cannot be told from the other's. wire is the median
// report that ordered no migration (a bare frame round trip through
// dispatch); master is what remains of the others.
func reportBudget(reports, migrates []*tracing.Span, r *result) {
	sort.Slice(reports, func(i, k int) bool { return reports[i].Start < reports[k].Start })
	sort.Slice(migrates, func(i, k int) bool { return migrates[i].Start < migrates[k].Start })
	var wire, master, migrate []int64
	type split struct{ total, migrate time.Duration }
	var ordered []split
	m := 0
	for i, rep := range reports {
		if i > 0 && reports[i-1].End > rep.Start || i+1 < len(reports) && reports[i+1].Start < rep.End {
			continue
		}
		for m < len(migrates) && migrates[m].Start < rep.Start {
			m++
		}
		var inMigrate time.Duration
		n := 0
		for k := m; k < len(migrates) && migrates[k].End <= rep.End; k++ {
			inMigrate += migrates[k].Duration()
			n++
		}
		if n == 0 {
			wire = append(wire, int64(rep.Duration()))
			continue
		}
		ordered = append(ordered, split{rep.Duration(), inMigrate})
	}
	emitBudget(r, "budget.report.wire_ns", wire)
	bare := time.Duration(r.get("budget.report.wire_ns"))
	for _, s := range ordered {
		migrate = append(migrate, int64(s.migrate))
		master = append(master, int64(max(s.total-s.migrate-bare, 0)))
	}
	emitBudget(r, "budget.report.master_ns", master)
	emitBudget(r, "budget.report.migrate_ns", migrate)
}

// simBudget reads the simulator's span journal: every query's stage spans
// tile its root span, so the mean of each stage per query is its share of
// the simulated latency. Simulated time, exact.
func simBudget(spans []tracing.Span, r *result) {
	sums := make(map[tracing.Stage]time.Duration, 8)
	var queries int64
	for i := range spans {
		s := &spans[i]
		if s.Stage == tracing.StageQuery {
			queries++
			continue
		}
		sums[s.Stage] += s.Duration()
	}
	perQuery := func(stage tracing.Stage) float64 {
		return float64(sums[stage]) / float64(max(queries, 1)) / 1e6
	}
	r.set("budget.sim.client_compute_ms", perQuery(tracing.StageClientCompute))
	r.set("budget.sim.transfer_up_ms", perQuery(tracing.StageTransferUp))
	r.set("budget.sim.exec_compute_ms", perQuery(tracing.StageExecCompute))
	r.set("budget.sim.transfer_down_ms", perQuery(tracing.StageTransferDown))
}

// maxFileSpans bounds the span files: WritePerfetto holds every event in
// memory, and a few seconds of live-steady record over half a million
// spans. The budget above is computed over all of them.
const maxFileSpans = 100_000

// headTraces returns the spans of the earliest-recorded traces, whole
// traces only, up to about limit spans.
func headTraces(spans []tracing.Span, limit int) []tracing.Span {
	if len(spans) <= limit {
		return spans
	}
	sizes := make(map[tracing.TraceID]int, limit)
	for i := range spans {
		sizes[spans[i].Trace]++
	}
	keep := make(map[tracing.TraceID]bool, limit)
	total := 0
	for i := range spans {
		if t := spans[i].Trace; !keep[t] && total < limit {
			keep[t] = true
			total += sizes[t]
		}
	}
	out := make([]tracing.Span, 0, total)
	for i := range spans {
		if keep[spans[i].Trace] {
			out = append(out, spans[i])
		}
	}
	return out
}

// writeSpans validates a journal and writes its head as JSONL and as a
// Perfetto file. A journal that fails validation fails the run.
func writeSpans(dir, workload string, spans []tracing.Span, r *result) error {
	if err := tracing.Validate(spans); err != nil {
		r.fail("span journal: %v", err)
	}
	spans = headTraces(spans, maxFileSpans)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, fn func(f *os.File) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write(workload+".spans.jsonl", func(f *os.File) error { return tracing.WriteJSONL(f, spans) }); err != nil {
		return err
	}
	return write(workload+".perfetto.json", func(f *os.File) error { return tracing.WritePerfetto(f, spans) })
}
