// Package attruser exercises the attribute-block half of the journal-shape
// analyzer.
package attruser

import (
	"time"

	"perdnn/internal/obs/tracing"
)

func recordLiteral(tr *tracing.Tracer, now time.Duration) {
	tr.RecordAttrs(1, 0, "handoff", "client/1", now, now, tracing.Attrs{Client: 1, Target: 4}) // want "ad-hoc tracing.Attrs literal"
}

func buildLiteral(layers int) tracing.Attrs {
	return tracing.Attrs{ // want "ad-hoc tracing.Attrs literal"
		Client: 3,
		Layers: layers,
	}
}

func recordConstructed(tr *tracing.Tracer, now time.Duration) {
	tr.RecordAttrs(1, 0, "handoff", "client/1", now, now, tracing.NewAttrs(1, -1, 4, 0, 0)) // ok: constructor states every ID
}

func planEstimate(a tracing.Attrs, est time.Duration) tracing.Attrs {
	return a.WithEstimate(1, est) // ok: combinator preserves shape
}

func none() tracing.Attrs {
	return tracing.Attrs{} // ok: the empty block means no attributes
}
