package core

import "errors"

// Sentinel errors of the fault-tolerant live path. They are re-exported by
// the public perdnn package; callers classify failures with errors.Is
// rather than string matching. Wrap them with fmt.Errorf("...: %w", ...)
// at the site that detects the condition.
var (
	// ErrServerDown marks a failure to reach (or keep a connection to) an
	// edge server: dial refused, read/write timed out, or the peer closed
	// the connection mid-exchange.
	ErrServerDown = errors.New("edge server down")

	// ErrMasterDown marks a failure to reach the master daemon.
	ErrMasterDown = errors.New("master unreachable")

	// ErrRetryBudgetExhausted marks an operation that kept failing until
	// its RetryPolicy ran out of attempts or time budget. The final
	// attempt's error is wrapped alongside it.
	ErrRetryBudgetExhausted = errors.New("retry budget exhausted")

	// ErrLocalFallback marks a query answered by client-local execution
	// because no edge server responded. The result accompanying it is
	// valid — the error only reports the degraded path, so callers can
	// count fallbacks (or escalate) with errors.Is.
	ErrLocalFallback = errors.New("degraded to client-local execution")

	// ErrExecRefused marks an exec request no client of the edge's model
	// could send: a stage above the model's total server time or
	// activation bytes, an intensity outside [0, 1], or a relay list
	// longer than the model or naming one address twice. The edge refuses
	// it before any work or relay.
	ErrExecRefused = errors.New("exec request outside the model's bounds")
)
