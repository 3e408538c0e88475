package attruser

import "perdnn/internal/obs/tracing"

// Tests may state expected attribute blocks as literals; obsjournal must
// stay silent here.
func expectedAttrs() tracing.Attrs {
	return tracing.Attrs{Client: 1, Server: 0, Target: 4}
}
